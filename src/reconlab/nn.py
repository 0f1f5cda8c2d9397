"""Deterministic training and evaluation of small MLP classifiers.

Both released and shadow models pass through this machinery. Training is
bit-deterministic: a fixed reduction order, 64-bit floats throughout, and
all randomness drawn from labeled child streams of the three seeds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

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
    "train_dp",
    "accuracy",
]


class DivergenceError(RuntimeError):
    """Raised when training produces non-finite parameters or loss."""


def _elu(z):
    return np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))


def _elu_d(z):
    return np.where(z > 0, 1.0, np.exp(np.minimum(z, 0.0)))


def _softplus(z):
    return np.logaddexp(0.0, z)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


# name -> (f, f') with exact derivatives; all map finite inputs to finite outputs
ACTIVATIONS = {
    "elu": (_elu, _elu_d),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(np.float64)),
    "leaky_relu": (
        lambda z: np.where(z > 0, z, 0.01 * z),
        lambda z: np.where(z > 0, 1.0, 0.01),
    ),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "sigmoid": (_sigmoid, lambda z: _sigmoid(z) * (1.0 - _sigmoid(z))),
    "softplus": (_softplus, _sigmoid),
    "identity": (lambda z: z, lambda z: np.ones_like(z)),
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
    def output_dim(self) -> int:
        return self.layer_widths[-1]

    @property
    def num_layers(self) -> int:
        return len(self.layer_widths) - 1

    @property
    def parameter_count(self) -> int:
        ws = self.layer_widths
        return sum(ws[i] * ws[i + 1] + ws[i + 1] for i in range(len(ws) - 1))

    def layer_parameter_counts(self):
        ws = self.layer_widths
        return [ws[i] * ws[i + 1] + ws[i + 1] for i in range(len(ws) - 1)]


@dataclass
class ModelParams:
    """Per-layer weights (in_dim x out_dim) and biases matching an architecture."""

    arch: MlpArchitecture
    weights: list
    biases: list

    def __post_init__(self):
        ws = self.arch.layer_widths
        if len(self.weights) != self.arch.num_layers or len(self.biases) != self.arch.num_layers:
            raise ValueError("layer count mismatch")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (ws[i], ws[i + 1]) or b.shape != (ws[i + 1],):
                raise ValueError(f"shape mismatch in layer {i}")

    @property
    def parameter_count(self) -> int:
        return self.arch.parameter_count

    def flatten(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)

    def flatten_layers(self, layers) -> np.ndarray:
        parts = []
        for i in layers:
            parts.append(self.weights[i].ravel())
            parts.append(self.biases[i])
        return np.concatenate(parts)

    def copy(self) -> "ModelParams":
        return ModelParams(self.arch, [w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def l2_distance(self, other: "ModelParams") -> float:
        return float(np.linalg.norm(self.flatten() - other.flatten()))

    @staticmethod
    def view(arch: MlpArchitecture, flat: np.ndarray) -> "ModelParams":
        """Params whose weights and biases are views into flat, laid out as
        flatten() writes them; writing to flat updates every layer."""
        ws = arch.layer_widths
        weights, biases, off = [], [], 0
        for i in range(arch.num_layers):
            n = ws[i] * ws[i + 1]
            weights.append(flat[off : off + n].reshape(ws[i], ws[i + 1]))
            off += n
            biases.append(flat[off : off + ws[i + 1]])
            off += ws[i + 1]
        return ModelParams(arch, weights, biases)

    @staticmethod
    def unflatten(arch: MlpArchitecture, vec: np.ndarray) -> "ModelParams":
        return ModelParams.view(arch, np.array(vec, dtype=np.float64))


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
        if self.optimizer == "dpgd":
            if self.clip_norm is None or self.clip_norm <= 0:
                raise ValueError("dpgd requires clip_norm > 0")
            if self.noise_multiplier is None or self.noise_multiplier < 0:
                raise ValueError("dpgd requires noise_multiplier >= 0")

    def with_seeds(self, init_seed=None, shuffle_seed=None, noise_seed=None) -> "TrainConfig":
        kwargs = {}
        if init_seed is not None:
            kwargs["init_seed"] = init_seed
        if shuffle_seed is not None:
            kwargs["shuffle_seed"] = shuffle_seed
        if noise_seed is not None:
            kwargs["noise_seed"] = noise_seed
        return replace(self, **kwargs)


@functools.lru_cache(maxsize=8)
def _init_flat(arch: MlpArchitecture, seed: int) -> np.ndarray:
    """init_params as a read-only flat vector, shared by every model trained
    from the same (arch, seed), as all shadows of one release are."""
    rng = Rng(seed)
    flat = np.zeros(arch.parameter_count)
    ws = arch.layer_widths
    for i, w in enumerate(ModelParams.view(arch, flat).weights):
        g = rng.child(("init", i)).generator
        w[...] = g.normal(0.0, 1.0 / np.sqrt(ws[i]), size=w.shape)
    flat.flags.writeable = False
    return flat


def init_params(arch: MlpArchitecture, seed: int) -> ModelParams:
    """Lecun-normal weights (std = 1/sqrt(fan_in)), zero biases."""
    return ModelParams.unflatten(arch, _init_flat(arch, seed))


def _forward_cached(params: ModelParams, X: np.ndarray):
    """Forward pass keeping post-activation outputs and pre-activations."""
    act, _ = ACTIVATIONS[params.arch.activation]
    a = X
    activations = [a]  # post-activation inputs to each layer
    pre = []
    last = params.arch.num_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        pre.append(z)
        a = z if i == last else act(z)
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


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    s = logits - m
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


def _backprop(params: ModelParams, activations, pre, delta, grad: ModelParams) -> None:
    """Backpropagate delta (the loss gradient at the output pre-activations)
    through the layers, writing each layer's gradient into grad in place."""
    _, dact = ACTIVATIONS[params.arch.activation]
    for i in range(params.arch.num_layers - 1, -1, -1):
        np.matmul(activations[i].T, delta, out=grad.weights[i])
        np.sum(delta, axis=0, out=grad.biases[i])
        if i > 0:
            delta = (delta @ params.weights[i].T) * dact(pre[i - 1])


def loss_and_grad(params: ModelParams, X: np.ndarray, y: np.ndarray,
                  grad: ModelParams = None):
    """Mean cross-entropy over the batch and its backprop gradient.

    If grad is given (a ModelParams, such as views into a flat buffer), the
    gradient is written into it and it is returned, so a training loop can
    reuse one buffer.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    if grad is None:
        grad = ModelParams.view(params.arch, np.empty(params.arch.parameter_count))
    n = X.shape[0]
    activations, pre = _forward_cached(params, X)
    logp = _log_softmax(activations[-1])
    loss = float(-logp[np.arange(n), y].mean())
    if not np.isfinite(loss):
        raise DivergenceError("non-finite loss")
    delta = np.exp(logp)
    delta[np.arange(n), y] -= 1.0
    delta /= n
    _backprop(params, activations, pre, delta, grad)
    return loss, grad


def per_example_grads(params: ModelParams, X: np.ndarray, y: np.ndarray,
                      out: np.ndarray = None) -> np.ndarray:
    """Per-example gradients of the summed cross-entropy, flattened, shape (n, P).

    If out is given (a float64 (n, P) array), the gradients are written into
    it and it is returned, so a training loop can reuse one buffer.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    n = X.shape[0]
    if out is None:
        out = np.empty((n, params.arch.parameter_count))
    activations, pre = _forward_cached(params, X)
    _, dact = ACTIVATIONS[params.arch.activation]
    delta = np.exp(_log_softmax(activations[-1]))
    delta[np.arange(n), y] -= 1.0

    ws = params.arch.layer_widths
    ends = np.cumsum(params.arch.layer_parameter_counts())
    for i in range(params.arch.num_layers - 1, -1, -1):
        w_end = ends[i] - ws[i + 1]
        w_start = w_end - ws[i] * ws[i + 1]
        gw = out[:, w_start:w_end].reshape(n, ws[i], ws[i + 1])
        np.einsum("ni,nj->nij", activations[i], delta, out=gw)
        out[:, w_end : ends[i]] = delta
        if i > 0:
            delta = (delta @ params.weights[i].T) * dact(pre[i - 1])
    return out


def _momentum_step(theta, velocity, grad_vec, lr, mu):
    """Heavy-ball update of theta and velocity in place."""
    velocity *= mu
    velocity += grad_vec
    theta -= lr * velocity


def train(dataset, arch: MlpArchitecture, config: TrainConfig) -> ModelParams:
    """Run the configured optimizer; a pure function of (dataset, arch, config)."""
    if config.optimizer == "dpgd":
        return train_dp(dataset, arch, config)
    X, y = dataset.X, dataset.y
    n = len(y)
    theta = _init_flat(arch, config.init_seed).copy()
    params = ModelParams.view(arch, theta)
    grad_vec = np.empty_like(theta)
    grad = ModelParams.view(arch, grad_vec)
    velocity = np.zeros_like(theta)
    lr, mu = config.learning_rate, config.momentum

    full_batch = config.optimizer == "gd_momentum" or config.batch_size == "full"
    shuffle_rng = Rng(config.shuffle_seed)

    for epoch in range(config.epochs):
        if full_batch:
            loss_and_grad(params, X, y, grad)
            _momentum_step(theta, velocity, grad_vec, lr, mu)
        else:
            bs = int(config.batch_size)
            perm = shuffle_rng.child(("epoch", epoch)).permutation(n)
            for start in range(0, n, bs):
                idx = perm[start : start + bs]
                loss_and_grad(params, X[idx], y[idx], grad)
                _momentum_step(theta, velocity, grad_vec, lr, mu)
        if not np.isfinite(theta).all():
            raise DivergenceError(f"non-finite parameters at epoch {epoch}")
    return params


def clip_rows(grads: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale each row of grads in place to l2 norm <= clip_norm; returns grads."""
    norms = np.sqrt(np.add.reduce(grads * grads, axis=1))
    scale = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))
    grads *= scale[:, None]
    return grads


def train_dp(dataset, arch: MlpArchitecture, config: TrainConfig) -> ModelParams:
    """Full-batch DP-GD: clip per-example grads, sum, add Gaussian noise, divide by n."""
    if config.clip_norm is None or config.clip_norm <= 0:
        raise ValueError("train_dp requires clip_norm > 0")
    sigma = config.noise_multiplier or 0.0
    X, y = dataset.X, dataset.y
    n = len(y)
    C = float(config.clip_norm)

    theta = _init_flat(arch, config.init_seed).copy()
    params = ModelParams.view(arch, theta)
    per_example = np.empty((n, theta.size))
    velocity = np.zeros_like(theta)
    noise_rng = Rng(config.noise_seed)
    lr, mu = config.learning_rate, config.momentum

    for step in range(config.epochs):
        g = clip_rows(per_example_grads(params, X, y, out=per_example), C).sum(axis=0)
        if sigma > 0:
            g = g + noise_rng.child(("noise", step)).normal(0.0, sigma * C, size=g.shape)
        g /= n
        _momentum_step(theta, velocity, g, lr, mu)
        if not np.isfinite(theta).all():
            raise DivergenceError(f"non-finite parameters at step {step}")
    return params


def accuracy(params: ModelParams, dataset) -> float:
    logits = forward(params, dataset.X)
    return float((logits.argmax(axis=1) == dataset.y).mean())
