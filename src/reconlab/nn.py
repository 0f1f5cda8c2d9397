"""Deterministic training and evaluation of small MLP classifiers.

Both released and shadow models pass through this machinery. Training is
bit-deterministic: a fixed reduction order, 64-bit floats throughout, and
all randomness drawn from labeled child streams of the three seeds.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .rng import Rng

__all__ = [
    "MlpArchitecture",
    "ModelParams",
    "TrainConfig",
    "DivergenceError",
    "ACTIVATIONS",
    "init_params",
    "forward",
    "loss_and_grad",
    "per_example_grads",
    "train",
    "accuracy",
]


class DivergenceError(RuntimeError):
    """Raised when training produces non-finite parameters or loss. From
    train, whose one model is a stack of one, it names the first model of
    the stack that diverged, and trained holds the models before it, trained
    to the end: a ModelParams with flat (j, P), empty for one model."""

    trained = None


def _out(z, out):
    return np.empty(np.shape(z)) if out is None else out


def _elu(z, out=None):
    # where(z > 0, z, expm1(min(z, 0))) bit for bit: expm1(z) >= z for z < 0 and
    # expm1(0) == 0. z goes first: maximum(e, z) would turn z = -0.0 into -0.0
    out = np.minimum(z, 0.0, out=out)
    np.expm1(out, out=out)
    return np.maximum(z, out, out=out)


def _elu_d(z, out=None):
    # exp(0) == 1.0 exactly, so z > 0 needs no branch
    out = np.minimum(z, 0.0, out=out)
    return np.exp(out, out=out)


def _leaky_relu(z, out=None):
    out = np.multiply(z, 0.01, out=out)
    np.copyto(out, z, where=z > 0)
    return out


def _leaky_relu_d(z, out=None):
    out = _out(z, out)
    out.fill(0.01)
    np.copyto(out, 1.0, where=z > 0)
    return out


def _tanh_d(z, out=None):
    out = np.tanh(z, out=out)
    np.square(out, out=out)
    return np.subtract(1.0, out, out=out)


def _sigmoid(z, out=None):
    out = np.multiply(z, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _sigmoid_d(z, out=None):
    s = _sigmoid(z, out)
    return np.multiply(s, 1.0 - s, out=s)


def _ones(z, out=None):
    out = _out(z, out)
    out.fill(1.0)
    return out


# name -> (f, f') with exact derivatives; all map finite inputs to finite outputs.
# Each takes (z, out=None) and returns its value at z, written into the float64
# array out when one is given.
ACTIVATIONS = {
    "elu": (_elu, _elu_d),
    "relu": (lambda z, out=None: np.maximum(z, 0.0, out=out),
             lambda z, out=None: np.greater(z, 0.0, out=_out(z, out))),
    "leaky_relu": (_leaky_relu, _leaky_relu_d),
    "tanh": (lambda z, out=None: np.tanh(z, out=out), _tanh_d),
    "sigmoid": (_sigmoid, _sigmoid_d),
    "softplus": (lambda z, out=None: np.logaddexp(0.0, z, out=out), _sigmoid),
    "identity": (lambda z, out=None: np.positive(z, out=out), _ones),
}


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer widths (input dim first, class count last) and hidden activation."""

    layer_widths: tuple
    activation: str = "elu"

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise ValueError("architecture needs at least two layers")
        if any(w < 1 for w in widths):
            raise ValueError("all layer widths must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def num_layers(self) -> int:
        return len(self.layer_widths) - 1

    @property
    def parameter_count(self) -> int:
        ws = self.layer_widths
        return sum(ws[i] * ws[i + 1] + ws[i + 1] for i in range(len(ws) - 1))


class ModelParams:
    """Parameters of an architecture, held in one float64 vector flat.

    Layout: for each layer, its (in, out) weights row-major, then its biases.
    weights[i] and biases[i] are views into flat, so writing to either side
    updates the other. A leading axis on flat (such as one row per example)
    gives every view the same leading axis.
    """

    def __init__(self, arch: MlpArchitecture, flat: np.ndarray):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim == 0 or flat.shape[-1] != arch.parameter_count:
            raise ValueError(f"flat has shape {flat.shape}, architecture needs "
                             f"{arch.parameter_count} parameters per row")
        self.arch, self.flat = arch, flat
        lead, ws, off = flat.shape[:-1], arch.layer_widths, 0
        self.weights, self.biases = [], []
        for i in range(arch.num_layers):
            n = ws[i] * ws[i + 1]
            self.weights.append(flat[..., off : off + n].reshape(lead + (ws[i], ws[i + 1])))
            off += n
            self.biases.append(flat[..., off : off + ws[i + 1]])
            off += ws[i + 1]

    def flatten(self) -> np.ndarray:
        return self.flat.copy()

    def flatten_layers(self, layers) -> np.ndarray:
        parts = []
        for i in layers:
            parts.append(self.weights[i].ravel())
            parts.append(self.biases[i])
        return np.concatenate(parts)

    def l2_distance(self, other: "ModelParams") -> float:
        return float(np.linalg.norm(self.flat - other.flat))

    @staticmethod
    def unflatten(arch: MlpArchitecture, vec: np.ndarray) -> "ModelParams":
        return ModelParams(arch, np.array(vec, dtype=np.float64))


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters and seeds of the training algorithm T."""

    optimizer: str = "gd_momentum"  # gd_momentum | sgd_momentum | dpgd
    learning_rate: float = 0.2
    momentum: float = 0.9
    epochs: int = 100
    batch_size: object = "full"  # positive int or "full"
    clip_norm: float = None
    noise_multiplier: float = None
    init_seed: int = 0
    shuffle_seed: int = 1
    noise_seed: int = 2

    def __post_init__(self):
        if self.optimizer not in ("gd_momentum", "sgd_momentum", "dpgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size != "full" and int(self.batch_size) < 1:
            raise ValueError("batch_size must be a positive int or 'full'")
        if self.optimizer == "dpgd":
            if self.clip_norm is None or not 0 < self.clip_norm < np.inf:
                raise ValueError("dpgd requires a finite clip_norm > 0")
            if self.noise_multiplier is None or not 0 <= self.noise_multiplier < np.inf:
                raise ValueError("dpgd requires a finite noise_multiplier >= 0")


@functools.lru_cache(maxsize=8)
def _init_flat(arch: MlpArchitecture, seed: int) -> np.ndarray:
    """init_params as a read-only flat vector, shared by every model trained
    from the same (arch, seed), as all shadows of one release are."""
    rng = Rng(seed)
    flat = np.zeros(arch.parameter_count)
    ws = arch.layer_widths
    for i, w in enumerate(ModelParams(arch, flat).weights):
        g = rng.child(("init", i)).once()
        w[...] = g.normal(0.0, 1.0 / np.sqrt(ws[i]), size=w.shape)
    flat.flags.writeable = False
    return flat


def init_params(arch: MlpArchitecture, seed: int) -> ModelParams:
    """Lecun-normal weights (std = 1/sqrt(fan_in)), zero biases."""
    return ModelParams.unflatten(arch, _init_flat(arch, seed))


class _Workspace:
    """The buffers of one training step for an architecture, batches of n
    rows and a leading shape lead: (K,) for a stack of K models, each
    buffer then holding one (n, width) block per model, or () for one.
    Allocated once per training run and batch length. pre[i] holds layer
    i's pre-activations, post[i] a hidden layer's outputs, delta[i] the loss
    gradient at pre[i] and dact[i] the activation derivative there; row (n,)
    and cols (k, n) are scratch for the loss at the k outputs, and so is
    head, three (n, k) arrays built only if asked for (the classifier's loss
    works over the logits in place)."""

    def __init__(self, arch: MlpArchitecture, n: int, lead: tuple = (), head: bool = False):
        widths = arch.layer_widths[1:]
        k = widths[-1]
        self.pre = [np.empty(lead + (n, w)) for w in widths]
        self.delta = [np.empty(lead + (n, w)) for w in widths]
        self.post = [np.empty(lead + (n, w)) for w in widths[:-1]]
        self.dact = [np.empty(lead + (n, w)) for w in widths[:-1]]
        self.head = [np.empty(lead + (n, k)) for _ in range(3 if head else 0)]
        self.row = np.empty(lead + (n,))
        self.cols = np.empty(lead + (k, n))
        self.row_start = np.arange(0, self.row.size * k, k).reshape(self.row.shape)
        self._labels = self._label_at = None

    def models(self, K: int) -> "_Workspace":
        """A stacked workspace for the first K of its models: the first K
        blocks of every buffer, as contiguous as the whole."""
        if K == len(self.row):
            return self
        cut = object.__new__(_Workspace)
        for name in ("pre", "delta", "post", "dact", "head"):
            setattr(cut, name, [a[:K] for a in getattr(self, name)])
        cut.row, cut.cols, cut.row_start = self.row[:K], self.cols[:K], self.row_start[:K]
        cut._labels = cut._label_at = None
        return cut

    def label_index(self, y: np.ndarray) -> np.ndarray:
        """Flat index of each row's label logit in the C-ordered (..., n, k)
        logits of the workspace's batches, for labels y of shape (..., n);
        computed once per label array, so once per GD training run."""
        if y is not self._labels:
            k = self.cols.shape[-2]
            if y.size and (y.min() < 0 or y.max() >= k):
                raise IndexError(f"labels must lie in [0, {k})")
            self._labels, self._label_at = y, self.row_start + y
        return self._label_at


def _forward_cached(params: ModelParams, X: np.ndarray, work: _Workspace = None):
    """Forward pass keeping post-activation outputs and pre-activations, in
    work's buffers (fresh ones if work is None). X is (n, d) for one model,
    (K, n, d) for a stack of K whose params.flat is (K, P)."""
    n = X.shape[-2]
    work = _Workspace(params.arch, n, X.shape[:-2]) if work is None else work
    act, _ = ACTIVATIONS[params.arch.activation]
    a = X
    activations = [a]  # post-activation inputs to each layer
    pre = []
    last = params.arch.num_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        # a stacked matmul calls the same gemm on each model's 2-D slice
        z = np.matmul(a, w, out=work.pre[i])
        z += b[..., None, :]
        pre.append(z)
        a = z if i == last else act(z, out=work.post[i])
        activations.append(a)
    return activations, pre


def forward(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Pre-softmax logits for a single feature vector or a batch."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.shape[1] != params.arch.input_dim:
        raise ValueError(f"input dim {X.shape[1]} != architecture dim {params.arch.input_dim}")
    logits = _forward_cached(params, X)[0][-1]
    return logits[0] if single else logits


def _log_softmax(logits: np.ndarray, out, tmp, row, cols) -> np.ndarray:
    """Row-wise log-softmax of (..., n, k) logits, written into out; tmp
    (..., n, k), row (..., n) and cols (..., k, n) are scratch. The row max is
    a running maximum over the columns, one reduction over the rows of the
    transposed copy: a max is exact in any order, so it equals
    logits.max(axis=-1) bit for bit without a reduction along each short row.
    Every row sum runs along the last axis, so a leading axis keeps each
    row's bits."""
    np.copyto(cols, logits.mT)
    m = np.maximum.reduce(cols, axis=-2, out=row)
    s = np.subtract(logits, m[..., None], out=out)
    np.sum(np.exp(s, out=tmp), axis=-1, out=m)
    s -= np.log(m, out=m)[..., None]
    return s


def _col_sum(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.sum(a, axis=-2, out=out) bit for bit for a 2-D or 3-D a whose rows
    are contiguous (such as leading rows of a C-ordered buffer), and faster
    on the few-column arrays of a training step. With two or more columns
    both add each column's rows in order, starting from +0.0; with one,
    np.sum takes a pairwise path, so that case stays np.sum."""
    if a.shape[-1] == 1:
        return np.sum(a, axis=-2, out=out)
    return np.einsum("...nj->...j", a, out=out)


def _deltas(params: ModelParams, pre, delta, work: _Workspace) -> list:
    """The loss gradient at each layer's pre-activations, given delta, the
    one at the output layer's; hidden deltas go into work's buffers."""
    _, dact = ACTIVATIONS[params.arch.activation]
    deltas = [delta]
    for i in range(params.arch.num_layers - 1, 0, -1):
        delta = np.matmul(delta, params.weights[i].mT, out=work.delta[i - 1])
        delta *= dact(pre[i - 1], out=work.dact[i - 1])
        deltas.append(delta)
    return deltas[::-1]


def _backprop(params: ModelParams, activations, pre, delta, grad: ModelParams,
              work: _Workspace) -> None:
    """Backpropagate delta (the loss gradient at the output pre-activations)
    through the layers, writing each layer's gradient, summed over the
    batch, into grad in place, shaped like params: one model's (P,) or a
    stack's (K, P). Hidden deltas go into work's buffers."""
    for i, d in enumerate(_deltas(params, pre, delta, work)):
        np.matmul(activations[i].mT, d, out=grad.weights[i])
        _col_sum(d, grad.biases[i])


def _cross_entropy_delta(params: ModelParams, X, y, work: _Workspace):
    """Forward pass, log-softmax, and the gradient of the summed cross-entropy
    at the logits (softmax minus one-hot), all in work's buffers.
    Returns (activations, pre-activations, log-probabilities, label index, delta)."""
    activations, pre = _forward_cached(params, X, work)
    # the logits become the log-probabilities: backprop reads no output pre-activation
    logp = _log_softmax(activations[-1], activations[-1], work.delta[-1], work.row, work.cols)
    at = work.label_index(y)
    delta = np.exp(logp, out=work.delta[-1])
    delta.reshape(-1)[at] -= 1.0
    return activations, pre, logp, at, delta


def _as_batch(X, y):
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if y.shape != X.shape[:-1]:
        raise ValueError(f"features of shape {X.shape} but labels of shape {y.shape}")
    return X, y


def loss_and_grad(params: ModelParams, X: np.ndarray, y: np.ndarray,
                  grad: ModelParams = None, _work: _Workspace = None):
    """Mean cross-entropy over the batch and its backprop gradient.

    X is (n, d) and y (n,) for one model; for a stack of K models, whose
    params.flat is (K, P), X is (K, n, d) and y (K, n). One model's loss is
    a float, and a non-finite one raises DivergenceError; a stack's is the
    (K,) array of each model's loss, left for the caller to check.

    If grad is given (a ModelParams shaped like params), the gradient is
    written into it and it is returned, so a training loop can reuse one
    buffer.
    """
    X, y = _as_batch(X, y)
    n = X.shape[-2]
    if n == 0:
        raise ValueError("empty batch")
    if grad is None:
        grad = ModelParams(params.arch, np.empty(params.flat.shape))
    work = _Workspace(params.arch, n, X.shape[:-2]) if _work is None else _work
    activations, pre, logp, at, delta = _cross_entropy_delta(params, X, y, work)
    # the label indices are in range, so "clip" only skips take's buffered copy
    # x.mean(axis=-1) bit for bit, without its Python-level overhead
    loss = -np.add.reduce(np.take(logp, at, out=work.row, mode="clip"), axis=-1) / n
    if loss.ndim == 0:
        loss = float(loss)
        if not np.isfinite(loss):
            raise DivergenceError("non-finite loss")
    delta /= n
    _backprop(params, activations, pre, delta, grad, work)
    return loss, grad


def per_example_grads(params: ModelParams, X: np.ndarray, y: np.ndarray,
                      out: np.ndarray = None, _work: _Workspace = None,
                      _each=None) -> np.ndarray:
    """Per-example gradients of the summed cross-entropy, flattened: (n, P)
    for one model, whose X is (n, d) and y (n,).

    If out is given (a float64 (n, P) array), the gradients are written into
    it and it is returned, so a training loop can reuse one buffer. A stack
    of K models (X and y shaped as for loss_and_grad) needs _each: the
    models' gradients pass in turn through out, and _each(k, out) is called
    once model k's are in it. The forward and backward passes run on the
    stack, and each model's gradients are used while they are in cache.
    """
    X, y = _as_batch(X, y)
    stacked = X.ndim == 3
    if stacked and _each is None:
        raise ValueError("a stack's per-example gradients pass through _each")
    if out is None:
        out = np.empty(X.shape[-2:-1] + (params.arch.parameter_count,))
    work = _Workspace(params.arch, X.shape[-2], X.shape[:-2]) if _work is None else _work
    activations, pre, _, _, delta = _cross_entropy_delta(params, X, y, work)
    deltas = _deltas(params, pre, delta, work)
    rows = ModelParams(params.arch, out)
    for k in range(len(X) if stacked else 1):
        for i, delta in enumerate(deltas):
            a, d = (activations[i][k], delta[k]) if stacked else (activations[i], delta)
            np.einsum("ni,nj->nij", a, d, out=rows.weights[i])
            rows.biases[i][...] = d
        if _each is not None:
            _each(k, out)
    return out


def _clip_scale(grads: np.ndarray, clip_norm: float, squares: np.ndarray = None) -> np.ndarray:
    """The factor min(1, clip_norm / ||row||) for each row of grads; squares,
    if given, is scratch shaped like grads."""
    norms = np.sqrt(np.add.reduce(np.square(grads, out=squares), axis=1))
    return np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))


def clip_rows(grads: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale each row of grads in place to l2 norm <= clip_norm; returns grads."""
    grads *= _clip_scale(grads, clip_norm)[:, None]
    return grads


def _seedless(config: TrainConfig) -> dict:
    """config's fields but the init and noise seeds, which the models of a
    stack may differ in."""
    return {**vars(config), "init_seed": None, "noise_seed": None}


def train(dataset, arch: MlpArchitecture, config: TrainConfig, *configs,
          _work: _Workspace = None) -> ModelParams:
    """Heavy-ball descent under the configured optimizer; a pure function of
    (dataset, arch, config).

    GD, SGD and DP-GD differ only in each step's gradient g: the mean loss
    gradient over the full batch (GD) or over each shuffled minibatch (SGD),
    or the per-example gradients clipped to clip_norm, summed, noised and
    divided by n (full-batch DP-GD).

    Given K configs in all, train trains a stack of K models in the same
    loop: dataset.X is then (K, n, d) and dataset.y (K, n), the k-th model
    trains on row k of both under the k-th config, the configs may differ
    only in init_seed and noise_seed, and the result's flat is (K, P). One
    model, with X (n, d) and y (n,), is a stack of one: it trains as row 0
    of a stack, and the result's flat is that row, (P,). Each model gets
    the bits it gets alone: a stacked matmul calls the same gemm on each
    model's slice, every reduction runs along the same axis, and DP-GD
    clips, sums and noises each model's gradients in turn.

    A model that diverges stays in its stack; the loop stops early only at
    the end of an epoch in which model 0 has diverged. train then raises
    the DivergenceError of the first model that diverged, with the message
    that model raises alone, and the models before it, trained to the end,
    are the error's trained: a ModelParams with flat (j, P), empty for one
    model.

    _work, if given, is a stacked _Workspace of n rows for at least the
    stack's K models; the full batches run in its first K blocks, so a
    caller that trains stack after stack allocates them once.
    """
    configs = (config,) + configs
    one = dataset.y.ndim == 1
    X, y = (dataset.X[None], dataset.y[None]) if one else (dataset.X, dataset.y)
    K = len(configs)
    if K != len(y):
        raise ValueError(f"{K} configs for labels of shape {dataset.y.shape}")
    if any(_seedless(c) != _seedless(config) for c in configs[1:]):
        raise ValueError("a stack's configs may differ only in init_seed and noise_seed")
    n = y.shape[-1]
    if n == 0 and config.epochs > 0:
        raise ValueError("empty batch")
    theta = np.stack([_init_flat(arch, c.init_seed) for c in configs])
    velocity, g = np.zeros_like(theta), np.empty_like(theta)
    params, grad = ModelParams(arch, theta), ModelParams(arch, g)
    lr, mu = config.learning_rate, config.momentum
    errors = {}  # model index -> the divergence it raises alone

    dp = config.optimizer == "dpgd"
    full_batch = config.optimizer != "sgd_momentum" or config.batch_size == "full"
    bs = n if full_batch else min(int(config.batch_size), n)
    # one workspace per batch length, all made before the first step: batches
    # of bs rows and, unless bs divides n, a short last one
    works = {} if _work is None else {n: _work.models(K)}
    for m in (bs, n % bs) if config.epochs else ():
        if m and m not in works:
            works[m] = _Workspace(arch, m, (K,))
    shuffle_rng = Rng(config.shuffle_seed)
    if dp:
        C, sigma = float(config.clip_norm), config.noise_multiplier
        per_example = np.empty((n, arch.parameter_count))
        squares = np.empty_like(per_example)
        noise_rngs = [Rng(c.noise_seed) for c in configs]

        def clipped_sum(k, rows):
            """Model k's rows clipped to C, summed and noised, into g[k]."""
            # np.sum(clip_rows(rows, C), axis=0) without the in-place scaling:
            # the same products, added over the rows in the same order from
            # +0.0. Were a zero in g, and so in velocity, of the other sign,
            # theta could not see it: theta holds no -0.0 (biases start at
            # +0.0, and x - y is -0.0 only for x = -0.0), and +0.0 or a
            # nonzero value minus lr * (+-0.0) is the same.
            gk = g[k]
            np.einsum("n,np->p", _clip_scale(rows, C, squares), rows, out=gk)
            if sigma > 0:
                noise = noise_rngs[k].child(("noise", epoch)).once()
                gk += noise.normal(0.0, sigma * C, size=gk.shape)

    # a diverging model's inf and NaN are reported as a DivergenceError, not
    # as numpy's warnings, which -W error would raise before the models
    # ahead of it in the stack finish (np.errstate would slow every ufunc)
    with warnings.catch_warnings(action="ignore", category=RuntimeWarning):
        for epoch in range(config.epochs):
            if full_batch:
                batches = (None,)
            else:
                perm = shuffle_rng.child(("epoch", epoch)).once().permutation(n)
                batches = [perm[s : s + bs] for s in range(0, n, bs)]
            for idx in batches:
                Xb, yb = (X, y) if idx is None else (X[:, idx], y[:, idx])
                work = works[yb.shape[-1]]
                if dp:
                    per_example_grads(params, Xb, yb, out=per_example, _work=work,
                                      _each=clipped_sum)
                    g /= n
                else:
                    loss, _ = loss_and_grad(params, Xb, yb, grad, _work=work)
                    if not np.isfinite(loss).all():
                        for k in np.flatnonzero(~np.isfinite(loss)):
                            errors.setdefault(k, f"non-finite loss at epoch {epoch}")
                velocity *= mu
                velocity += g
                theta -= lr * velocity
            if not np.isfinite(theta).all():
                for k in np.flatnonzero(~np.isfinite(theta).all(axis=-1)):
                    errors.setdefault(k, f"non-finite parameters at epoch {epoch}")
            if 0 in errors:
                break
    if errors:
        error = DivergenceError(errors[min(errors)])
        error.trained = ModelParams(arch, theta[:min(errors)])
        raise error
    return ModelParams(arch, theta[0] if one else theta)


def accuracy(params: ModelParams, dataset) -> float:
    logits = forward(params, dataset.X)
    return float((logits.argmax(axis=1) == dataset.y).mean())
