"""Deterministic training and evaluation of small MLP classifiers.

Both released and shadow models pass through this machinery. Training is
bit-deterministic: a fixed reduction order, 64-bit floats throughout, and
all randomness drawn from labeled child streams of the three seeds.
"""

from __future__ import annotations

import functools
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
    """Raised when training produces non-finite parameters or loss."""


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

    def __reduce__(self):
        # pickle the vector once; the views are rebuilt on load
        return ModelParams, (self.arch, self.flat)

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
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
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
    """The buffers of one training step for an architecture and batches of up
    to n rows, allocated once per training run; a shorter batch uses leading
    rows. pre[i] holds layer i's pre-activations, post[i] a hidden layer's
    outputs, delta[i] the loss gradient at pre[i] and dact[i] the activation
    derivative there; head (three (n, k) arrays), row (n,) and cols (k, n) are
    scratch for the loss at the k outputs."""

    def __init__(self, arch: MlpArchitecture, n: int):
        widths = arch.layer_widths[1:]
        k = widths[-1]
        self.pre = [np.empty((n, w)) for w in widths]
        self.delta = [np.empty((n, w)) for w in widths]
        self.post = [np.empty((n, w)) for w in widths[:-1]]
        self.dact = [np.empty((n, w)) for w in widths[:-1]]
        self.head = [np.empty((n, k)) for _ in range(3)]
        self.row = np.empty(n)
        self.cols = np.empty((k, n))
        self.row_start = np.arange(0, n * k, k)
        self._labels = self._label_at = None

    def label_index(self, y: np.ndarray) -> np.ndarray:
        """Flat index of each row's label logit in a C-ordered (len(y), k)
        array; computed once per label array, so once per GD training run."""
        if y is not self._labels:
            k = self.head[0].shape[1]
            if len(y) and (y.min() < 0 or y.max() >= k):
                raise IndexError(f"labels must lie in [0, {k})")
            self._labels, self._label_at = y, self.row_start[: len(y)] + y
        return self._label_at


def _forward_cached(params: ModelParams, X: np.ndarray, work: _Workspace = None):
    """Forward pass keeping post-activation outputs and pre-activations, in
    work's buffers (fresh ones if work is None)."""
    n = X.shape[0]
    if work is None:
        work = _Workspace(params.arch, n)
    act, _ = ACTIVATIONS[params.arch.activation]
    a = X
    activations = [a]  # post-activation inputs to each layer
    pre = []
    last = params.arch.num_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = np.matmul(a, w, out=work.pre[i][:n])
        z += b
        pre.append(z)
        a = z if i == last else act(z, out=work.post[i][:n])
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


def _log_softmax(logits: np.ndarray, out=None, tmp=None, row=None, cols=None) -> np.ndarray:
    """Row-wise log-softmax of (n, k) logits, written into out; tmp (n, k),
    row (n,) and cols (k, n) are scratch. The row max is a running maximum
    over the columns, one reduction over the rows of the transposed copy: a
    max is exact in any order, so it equals logits.max(axis=1) bit for bit
    without a reduction along each short row."""
    if cols is None:
        cols = np.empty(logits.shape[::-1])
    np.copyto(cols, logits.T)
    m = np.maximum.reduce(cols, axis=0, out=row)
    s = np.subtract(logits, m[:, None], out=out)
    np.sum(np.exp(s, out=tmp), axis=1, out=m)
    s -= np.log(m, out=m)[:, None]
    return s


def _col_sum(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.sum(a, axis=0, out=out) bit for bit for a 2-D a whose rows are
    contiguous (such as leading rows of a C-ordered buffer), and faster on
    the few-column arrays of a training step. With two or more columns both
    add each column's rows in order, starting from +0.0; with one, np.sum
    takes a pairwise path, so that case stays np.sum."""
    if a.shape[1] == 1:
        return np.sum(a, axis=0, out=out)
    return np.einsum("nj->j", a, out=out)


def _backprop(params: ModelParams, activations, pre, delta, grad: ModelParams,
              work: _Workspace) -> None:
    """Backpropagate delta (the loss gradient at the output pre-activations)
    through the layers, writing each layer's gradient into grad in place:
    summed over the batch if grad.flat is (P,), one row per example if (n, P).
    Hidden deltas go into work's buffers."""
    _, dact = ACTIVATIONS[params.arch.activation]
    n = delta.shape[0]
    per_example = grad.flat.ndim == 2
    for i in range(params.arch.num_layers - 1, -1, -1):
        if per_example:
            np.einsum("ni,nj->nij", activations[i], delta, out=grad.weights[i])
            grad.biases[i][...] = delta
        else:
            np.matmul(activations[i].T, delta, out=grad.weights[i])
            _col_sum(delta, grad.biases[i])
        if i > 0:
            delta = np.matmul(delta, params.weights[i].T, out=work.delta[i - 1][:n])
            delta *= dact(pre[i - 1], out=work.dact[i - 1][:n])


def _cross_entropy_delta(params: ModelParams, X, y, work: _Workspace):
    """Forward pass, log-softmax, and the gradient of the summed cross-entropy
    at the logits (softmax minus one-hot), all in work's buffers.
    Returns (activations, pre-activations, log-probabilities, label index, delta)."""
    n = X.shape[0]
    activations, pre = _forward_cached(params, X, work)
    logp = _log_softmax(activations[-1], work.head[0][:n], work.delta[-1][:n], work.row[:n],
                        work.cols[:, :n])
    at = work.label_index(y)
    delta = np.exp(logp, out=work.delta[-1][:n])
    delta.reshape(-1)[at] -= 1.0
    return activations, pre, logp, at, delta


def _as_batch(X, y):
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if len(y) != X.shape[0]:
        raise ValueError(f"{X.shape[0]} rows but {len(y)} labels")
    return X, y


def loss_and_grad(params: ModelParams, X: np.ndarray, y: np.ndarray,
                  grad: ModelParams = None, _work: _Workspace = None):
    """Mean cross-entropy over the batch and its backprop gradient.

    If grad is given (a ModelParams), the gradient is written into it and it
    is returned, so a training loop can reuse one buffer.
    """
    X, y = _as_batch(X, y)
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if grad is None:
        grad = ModelParams(params.arch, np.empty(params.arch.parameter_count))
    work = _Workspace(params.arch, n) if _work is None else _work
    activations, pre, logp, at, delta = _cross_entropy_delta(params, X, y, work)
    # the label indices are in range, so "clip" only skips take's buffered copy
    loss = float(-np.take(logp, at, out=work.row[:n], mode="clip").mean())
    if not np.isfinite(loss):
        raise DivergenceError("non-finite loss")
    delta /= n
    _backprop(params, activations, pre, delta, grad, work)
    return loss, grad


def per_example_grads(params: ModelParams, X: np.ndarray, y: np.ndarray,
                      out: np.ndarray = None, _work: _Workspace = None) -> np.ndarray:
    """Per-example gradients of the summed cross-entropy, flattened, shape (n, P).

    If out is given (a float64 (n, P) array), the gradients are written into
    it and it is returned, so a training loop can reuse one buffer.
    """
    X, y = _as_batch(X, y)
    n = X.shape[0]
    if out is None:
        out = np.empty((n, params.arch.parameter_count))
    work = _Workspace(params.arch, n) if _work is None else _work
    activations, pre, _, _, delta = _cross_entropy_delta(params, X, y, work)
    _backprop(params, activations, pre, delta, ModelParams(params.arch, out), work)
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


def train(dataset, arch: MlpArchitecture, config: TrainConfig) -> ModelParams:
    """Heavy-ball descent under the configured optimizer; a pure function of
    (dataset, arch, config).

    GD, SGD and DP-GD differ only in each step's gradient g: the mean loss
    gradient over the full batch (GD) or over each shuffled minibatch (SGD),
    or the per-example gradients clipped to clip_norm, summed, noised and
    divided by n (full-batch DP-GD).
    """
    X, y = dataset.X, dataset.y
    n = len(y)
    params = init_params(arch, config.init_seed)
    theta = params.flat
    grad = ModelParams(arch, np.empty_like(theta))
    g = grad.flat
    velocity = np.zeros_like(theta)
    lr, mu = config.learning_rate, config.momentum

    dp = config.optimizer == "dpgd"
    full_batch = config.optimizer != "sgd_momentum" or config.batch_size == "full"
    bs = n if full_batch else int(config.batch_size)
    work = _Workspace(arch, min(bs, n))
    shuffle_rng = Rng(config.shuffle_seed)
    if dp:
        C, sigma = float(config.clip_norm), config.noise_multiplier
        per_example = np.empty((n, theta.size))
        squares = np.empty_like(per_example)
        noise_rng = Rng(config.noise_seed)

    for epoch in range(config.epochs):
        if full_batch:
            batches = ((X, y),)
        else:
            perm = shuffle_rng.child(("epoch", epoch)).once().permutation(n)
            batches = ((X[idx], y[idx]) for idx in (perm[s : s + bs] for s in range(0, n, bs)))
        for Xb, yb in batches:
            if dp:
                per_example_grads(params, Xb, yb, out=per_example, _work=work)
                # np.sum(clip_rows(per_example, C), axis=0) without the in-place
                # scaling: the same products, added over the rows in the same
                # order from +0.0. Were a zero in g, and so in velocity, of the
                # other sign, theta could not see it: theta holds no -0.0
                # (biases start at +0.0, and x - y is -0.0 only for x = -0.0),
                # and +0.0 or a nonzero value minus lr * (+-0.0) is the same.
                np.einsum("n,np->p", _clip_scale(per_example, C, squares), per_example, out=g)
                if sigma > 0:
                    noise = noise_rng.child(("noise", epoch)).once()
                    g += noise.normal(0.0, sigma * C, size=g.shape)
                g /= n
            else:
                loss_and_grad(params, Xb, yb, grad, _work=work)
            velocity *= mu
            velocity += g
            theta -= lr * velocity
        if not np.isfinite(theta).all():
            raise DivergenceError(f"non-finite parameters at epoch {epoch}")
    return params


def accuracy(params: ModelParams, dataset) -> float:
    logits = forward(params, dataset.X)
    return float((logits.argmax(axis=1) == dataset.y).mean())
