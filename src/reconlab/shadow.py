"""Shadow-model generation and the learned reconstructor-network attack.

The attack trains one shadow model per candidate target on the fixed set
plus that candidate, featurizes the resulting parameter vectors, and fits a
reconstructor network mapping normalized features back to the target. The
released model is then pushed through the same featurizer and network.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import metrics, nn, persist
from .data import LabeledDataset
from .rng import Rng, _derive

__all__ = [
    "Featurizer",
    "NormStats",
    "ShadowSet",
    "RecoNNConfig",
    "RecoNN",
    "featurize",
    "gen_shadow_models",
    "gen_shadows",
    "build_shadow_set",
    "train_reconn",
    "attack",
    "attack_errors",
    "dp_tradeoff",
    "train_many",
    "default_workers",
]

DEGENERATE_STD = 1e-12
# activation values of one train_many stack over all its layers: those of
# 8 desk models (501 rows, widths 10 and 10). Smaller models stack deeper,
# to spread numpy's per-call cost over as many values; no stack holds more,
# so its working set stays in cache
STACK_VALUES = 8 * 501 * (10 + 10)
RMS_DECAY = 0.9  # the reconstructor's RMSProp decay and epsilon
RMS_EPS = 1e-8


@dataclass(frozen=True)
class Featurizer:
    """How a model becomes an attack feature vector.

    mode "whitebox": canonical flatten of all layers.
    mode "layers":   flatten of the listed layer indices only.
    mode "blackbox": concatenated logits over a probe set (forward access only).
    """

    mode: str = "whitebox"
    layers: tuple = ()
    probe: np.ndarray = None

    def __post_init__(self):
        if self.mode not in ("whitebox", "layers", "blackbox"):
            raise ValueError(f"unknown featurizer mode {self.mode!r}")
        if self.mode == "layers" and not self.layers:
            raise ValueError("layers mode needs at least one layer index")
        if self.mode == "blackbox":
            if self.probe is None or len(self.probe) == 0:
                raise ValueError("blackbox mode needs a nonempty probe set")
            object.__setattr__(self, "probe", np.asarray(self.probe, dtype=np.float64))


def featurize(model: nn.ModelParams, featurizer: Featurizer) -> np.ndarray:
    if featurizer.mode == "whitebox":
        return model.flatten()
    if featurizer.mode == "layers":
        for i in featurizer.layers:
            if not 0 <= i < model.arch.num_layers:
                raise ValueError(f"layer index {i} out of range")
        return model.flatten_layers(featurizer.layers)
    return nn.forward(model, featurizer.probe).ravel()


@dataclass
class NormStats:
    """Per-coordinate mean/std over the shadow feature vectors."""

    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def fit(features: np.ndarray) -> "NormStats":
        features = np.atleast_2d(features)
        if features.shape[0] == 0:
            raise ValueError("cannot fit NormStats on an empty shadow set")
        return NormStats(features.mean(axis=0), features.std(axis=0))

    def effective_std(self) -> np.ndarray:
        # Degenerate (constant) coordinates pass through unscaled.
        return np.where(self.std < DEGENERATE_STD, 1.0, self.std)

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape[-1] != self.mean.shape[0]:
            raise ValueError(f"length mismatch {v.shape[-1]} vs {self.mean.shape[0]}")
        return (v - self.mean) / self.effective_std()


@dataclass
class ShadowSet:
    """Attack training data: featurized shadow models paired with their targets."""

    features: np.ndarray   # (k, F)
    targets: np.ndarray    # (k, d), entries in [0, 1]
    featurizer: Featurizer

    def __len__(self) -> int:
        return self.features.shape[0]

    def save(self, prefix: str, metadata: dict = None) -> None:
        """prefix.header: the format line, dims and metadata; prefix.bin: the
        (k, F + d) matrix of features and targets, then a black-box
        featurizer's probe rows, as little-endian float64. The featurizer
        itself is not written: the caller's config names it."""
        k, flen = self.features.shape
        fields = {"format": persist.SHADOWS, "k": k, "feature_len": flen,
                  "target_len": self.targets.shape[1]}
        arrays = [np.hstack([self.features, self.targets])]
        if self.featurizer.mode == "blackbox":
            arrays.append(self.featurizer.probe)
        with open(prefix + ".header", "w") as f:
            f.write(persist.format_header({**fields, **(metadata or {})}))
        with open(prefix + ".bin", "wb") as f:
            for a in arrays:
                a.astype("<f8").tofile(f)

    @staticmethod
    def load(prefix: str, featurizer: Featurizer, arch: nn.MlpArchitecture):
        """(shadow set, header fields) of a set saved with featurizer from
        models of arch, which size it: a header whose feature_len or
        target_len differs from theirs raises a ValueError naming the field.
        A black-box set's stored probe rows replace featurizer's probe.
        Missing file: OSError; corrupt: ValueError."""
        path = prefix + ".header"
        fields, _ = persist.read_header(path, persist.SHADOWS)
        k, flen, tlen = (persist.header_field(fields, key, path, int)
                         for key in ("k", "feature_len", "target_len"))
        model = nn.ModelParams(arch, np.zeros(arch.parameter_count))  # any model of arch
        for key, got, want in (("feature_len", flen, featurize(model, featurizer).size),
                               ("target_len", tlen, arch.input_dim)):
            if got != want:
                raise ValueError(f"{path}: {key} {got} differs from {want}, that of the "
                                 f"{featurizer.mode} featurizer of {arch.layer_widths} models")
        shapes = [(k, flen + tlen)]
        if featurizer.mode == "blackbox":
            shapes.append(featurizer.probe.shape)
        with open(prefix + ".bin", "rb") as f:
            mat, *probe = persist.f8_arrays(f.read(), shapes, prefix + ".bin")
        if probe:
            featurizer = replace(featurizer, probe=probe[0])
        return ShadowSet(mat[:, :flen].copy(), mat[:, flen:].copy(), featurizer), fields


def default_workers() -> int:
    """RECONLAB_THREADS if set, else the number of cores this process may run on."""
    value = os.environ.get("RECONLAB_THREADS")
    if value is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"RECONLAB_THREADS must be a positive integer, got {value!r}")
    return workers


def shadow_config(config: nn.TrainConfig, index: int, random_init: bool) -> nn.TrainConfig:
    """Per-shadow seeds: DP noise is always fresh; init only under the ablation."""
    init_seed = config.init_seed
    if random_init:
        init_seed = _derive(config.init_seed, ("shadow-init", index))
    return replace(config, init_seed=init_seed,
                   noise_seed=_derive(config.noise_seed, ("shadow-noise", index)))


def _depth(rows: int, arch: nn.MlpArchitecture) -> int:
    """Models per stack for rows rows through arch: as many as STACK_VALUES
    holds of their activations, and at least one."""
    return max(1, STACK_VALUES // (rows * sum(arch.layer_widths[1:])))


def _stacks(configs, size: int) -> list:
    """Consecutive indices into configs in runs of at most size whose
    configs differ only in init_seed and noise_seed."""
    stacks = []
    for _, run in itertools.groupby(range(len(configs)),
                                    key=lambda i: nn._seedless(configs[i])):
        run = list(run)
        stacks += [run[s : s + size] for s in range(0, len(run), size)]
    return stacks


def _slot(fixed: LabeledDataset, arch: nn.MlpArchitecture, K: int):
    """The buffers one thread trains its stacks of up to K models in, made
    once: the (K, n + 1, d) features and (K, n + 1) labels of fixed plus one
    point per model, fixed's rows filled in, and nn.train's workspace."""
    n = len(fixed)
    X = np.empty((K, n + 1, fixed.dim))
    y = np.empty((K, n + 1), dtype=np.int64)
    X[:, :n], y[:, :n] = fixed.X, fixed.y
    return X, y, nn._Workspace(arch, n + 1, (K,))


def _train_stack(slot, arch, points, configs):
    """nn.train's stack on the slot's fixed rows plus each of points: (the
    (j, P) rows of the models trained, the divergence message of model j or
    None)."""
    X, y, work = slot
    last = LabeledDataset([p.x for p in points], [p.y for p in points])
    K = len(last)
    X, y = X[:K], y[:K]
    X[:, -1], y[:, -1] = last.X, last.y
    try:
        return nn.train(SimpleNamespace(X=X, y=y), arch, *configs, _work=work).flat, None
    except nn.DivergenceError as e:
        return e.trained.flat, str(e)


def train_many(fixed: LabeledDataset, points, arch: nn.MlpArchitecture, configs,
               names=None):
    """Yield, in point order, the model trained on fixed + points[i] with configs[i].

    Consecutive points whose configs differ only in init_seed and noise_seed
    train together, as many at a time as ``_depth`` allows for their rows and
    widths, as one stack of nn.train, each model with the bits nn.train gives
    it alone. ``default_workers()`` threads take the stacks in order until
    none is left or one has diverged or raised, in smaller stacks when that
    keeps every thread busy; every model is trained before the first is
    yielded. A divergence raises nn.DivergenceError, after every earlier
    model was yielded, naming the point: by names[i] if given, else as
    "point i". points, configs and names must have the same length; seeds
    are the caller's choice.
    """
    from concurrent.futures import ThreadPoolExecutor
    from queue import Empty, SimpleQueue

    if names is None:
        names = [f"point {i}" for i in range(len(configs))]
    if not len(points) == len(configs) == len(names):
        raise ValueError(f"train_many got {len(points)} points, {len(configs)} configs "
                         f"and {len(names)} names")
    workers = default_workers()
    size = min(_depth(len(fixed) + 1, arch), max(1, -(-len(configs) // workers)))
    stacks = _stacks(configs, size)
    todo = SimpleQueue()
    for i, s in enumerate(stacks):
        todo.put((i, [points[j] for j in s], [configs[j] for j in s]))
    results = [None] * len(stacks)  # _train_stack's, or None for a stack never started
    # set once a stack diverged or raised; any stack taken as it is set is later, never yielded
    stop = False

    def drain(slot):
        nonlocal stop
        while not stop:
            try:
                i, *job = todo.get_nowait()
            except Empty:
                return
            try:
                results[i] = _train_stack(slot, arch, *job)
            except BaseException:
                stop = True
                raise
            if results[i][1] is not None:
                stop = True

    slots, futures = [], []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in range(min(workers, len(stacks))):
            slots.append(_slot(fixed, arch, size))
            futures.append(pool.submit(drain, slots[-1]))
    del slots  # freed here, not by each thread as it ends: that raised dp_sweep's peak RSS
    for future in futures:
        future.result()
    for s, (theta, error) in zip(stacks, results):
        for row in theta:
            yield nn.ModelParams(arch, row)
        if error:
            raise nn.DivergenceError(f"{names[s[len(theta)]]} diverged: {error}")


def gen_shadow_models(fixed: LabeledDataset, shadow_pool: LabeledDataset,
                      arch: nn.MlpArchitecture, config: nn.TrainConfig,
                      random_init: bool = False) -> list:
    """Train one model on fixed + each shadow target; order matches the pool."""
    configs = [shadow_config(config, i, random_init) for i in range(len(shadow_pool))]
    return list(train_many(fixed, shadow_pool, arch, configs))


def build_shadow_set(models: list, shadow_pool: LabeledDataset,
                     featurizer: Featurizer) -> ShadowSet:
    """Featurize trained shadow models, paired with their targets."""
    features = np.stack([featurize(m, featurizer) for m in models])
    return ShadowSet(features, shadow_pool.X.copy(), featurizer)


def gen_shadows(fixed: LabeledDataset, shadow_pool: LabeledDataset,
                arch: nn.MlpArchitecture, config: nn.TrainConfig,
                featurizer: Featurizer, random_init: bool = False) -> ShadowSet:
    models = gen_shadow_models(fixed, shadow_pool, arch, config, random_init)
    return build_shadow_set(models, shadow_pool, featurizer)


@dataclass(frozen=True)
class RecoNNConfig:
    """Reconstructor network: MLP with ReLU hidden layers and sigmoid output,
    trained with RMSProp on an equally weighted MAE+MSE loss."""

    hidden_widths: tuple = None  # None -> two layers, width max(64, 4*sqrt(F))
    learning_rate: float = 1e-3
    batch_size: int = 128
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"reconn learning_rate must be finite and >= 0, "
                             f"got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"reconn epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"reconn batch_size must be >= 1, got {self.batch_size}")
        if self.hidden_widths is not None and any(w < 1 for w in self.hidden_widths):
            raise ValueError(f"reconn hidden_widths must be >= 1, got {self.hidden_widths}")

    def resolve_widths(self, feature_len: int) -> tuple:
        if self.hidden_widths is not None:
            return tuple(self.hidden_widths)
        w = max(64, int(4 * np.sqrt(feature_len)))
        return (w, w)


@dataclass
class RecoNN:
    """A trained reconstructor with its shadow set's featurizer and the
    NormStats fitted to its features; attack(phi, released) returns the
    candidate reconstruction."""

    params: nn.ModelParams
    featurizer: Featurizer
    stats: NormStats

    def predict(self, normalized_features: np.ndarray) -> np.ndarray:
        # a logit below about -709 overflows exp, and the sigmoid is then 0.0
        # as it should be: numpy's warning would be an error under -W error
        with np.errstate(all="ignore"):
            logits = nn.forward(self.params, normalized_features)
            return 1.0 / (1.0 + np.exp(-logits))


def _reconn_loss_grad(params: nn.ModelParams, F: np.ndarray, T: np.ndarray,
                      grad: nn.ModelParams, _work=None) -> float:
    """Mean (|o-t| + (o-t)^2) over batch and coords, sigmoid output, exact
    backprop; the gradient is written into grad. _work, if given, is an
    nn._Workspace for the architecture and len(F) rows, with head."""
    n = F.shape[0]
    work = nn._Workspace(params.arch, n, head=True) if _work is None else _work
    acts, pre = nn._forward_cached(params, F, work)
    out, diff, tmp = work.head
    np.negative(acts[-1], out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    np.subtract(out, T, out=diff)
    err = np.abs(diff, out=tmp)
    err += np.square(diff, out=work.delta[-1])
    loss = float(np.mean(err))
    # (sign(diff) + 2 diff) * out * (1 - out) / diff.size, in that order
    delta = np.sign(diff, out=work.delta[-1])
    delta += np.multiply(diff, 2.0, out=tmp)
    delta *= out
    delta *= np.subtract(1.0, out, out=tmp)
    delta /= diff.size
    nn._backprop(params, acts, pre, delta, grad, work)
    return loss


def train_reconn(shadow_set: ShadowSet, config: RecoNNConfig = RecoNNConfig()) -> RecoNN:
    """Fit NormStats to the shadow features, then the reconstructor on the
    normalized features; deterministic given the seed. The result is the
    attack: call it on a released model."""
    k, flen = shadow_set.features.shape
    if k < config.batch_size:
        raise ValueError(f"shadow set size {k} < batch size {config.batch_size}")
    d_out = shadow_set.targets.shape[1]
    arch = nn.MlpArchitecture((flen, *config.resolve_widths(flen), d_out), activation="relu")
    stats = NormStats.fit(shadow_set.features)
    F = stats.apply(shadow_set.features)
    T = shadow_set.targets

    params = nn.init_params(arch, _derive(config.seed, "reconn-init"))
    theta = params.flat
    grad = nn.ModelParams(arch, np.empty_like(theta))
    gv = grad.flat
    cache = np.zeros_like(theta)
    denom = np.empty_like(theta)
    bs = config.batch_size
    # one workspace per batch length, made before the first step
    works = {m: nn._Workspace(arch, m, head=True) for m in (bs, k % bs) if m}
    shuffle = Rng(_derive(config.seed, "reconn-shuffle"))
    lr, rho, eps = config.learning_rate, RMS_DECAY, RMS_EPS

    # the sigmoid's exp overflows to inf on a large negative logit, which a
    # large learning rate reaches, and its output is then 0.0 as it should
    # be; a non-finite loss is reported as a DivergenceError, not a warning
    with np.errstate(all="ignore"):
        for epoch in range(config.epochs):
            perm = shuffle.child(("epoch", epoch)).once().permutation(k)
            for start in range(0, k, bs):
                idx = perm[start : start + bs]
                loss = _reconn_loss_grad(params, F[idx], T[idx], grad, works[len(idx)])
                if not np.isfinite(loss):
                    raise nn.DivergenceError(f"reconstructor diverged at epoch {epoch}")
                # RMSProp in place, in the operation order of
                # cache = rho*cache + (1-rho)*gv*gv; theta -= lr*gv / (sqrt(cache) + eps).
                # gv is scratch once cache is updated: the next backprop overwrites all of it
                np.multiply(1.0 - rho, gv, out=denom)
                denom *= gv
                cache *= rho
                cache += denom
                np.sqrt(cache, out=denom)
                denom += eps
                gv *= lr
                gv /= denom
                theta -= gv
    return RecoNN(params, shadow_set.featurizer, stats)


def attack(phi: RecoNN, released) -> np.ndarray:
    """Candidate reconstruction from a released model (params or forward access)."""
    return phi.predict(phi.stats.apply(featurize(released, phi.featurizer)))


def attack_errors(phi: RecoNN, released, targets_X) -> np.ndarray:
    """Per-target attack MSE, in order: one attack per released model; counts must match."""
    return np.array([metrics.mse(z, attack(phi, m))
                     for z, m in zip(targets_X, released, strict=True)])


def dp_tradeoff(fixed: LabeledDataset, shadow_pool: LabeledDataset, targets: LabeledDataset,
                arch: nn.MlpArchitecture, sigmas, repeats: int, run_config,
                released_noise_seed, reconn_config: RecoNNConfig = RecoNNConfig()) -> list:
    """White-box attack error against DP noise: one (mean MSE, stderr, mean
    accuracy) row per sigma, in order, averaged over repeats.

    Each repeat trains shadows and a reconstructor under run_config(sigma, rep)
    and attacks released models trained under that config with only the DP
    noise seed replaced by released_noise_seed(sigma, rep, i): the informed
    adversary shares every other seed with the release. A repeat's shadows
    and released models are trained in one train_many call, so one thread
    pool serves both; a divergence names the shadow or target index.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    k = len(shadow_pool)
    points = [shadow_pool[i] for i in range(k)] + [targets[i] for i in range(len(targets))]
    names = [f"shadow {i}" for i in range(k)] + [f"target {i}" for i in range(len(targets))]
    rows = []
    for sigma in sigmas:
        mses, accs = [], []
        for rep in range(repeats):
            config = run_config(sigma, rep)
            configs = [shadow_config(config, i, random_init=False) for i in range(k)]
            configs += [replace(config, noise_seed=released_noise_seed(sigma, rep, i))
                        for i in range(len(targets))]
            models = train_many(fixed, points, arch, configs, names)
            # the shadows come first, and the reconstructor trains on them
            # before the released models are drawn, which keeps the peak
            # memory lower than drawing all of them first
            phi = train_reconn(
                build_shadow_set(list(itertools.islice(models, k)), shadow_pool, Featurizer()),
                reconn_config)
            released = list(models)
            mses.append(float(np.mean(attack_errors(phi, released, targets.X))))
            accs.append(float(np.mean([nn.accuracy(m, targets) for m in released])))
        se = float(np.std(mses, ddof=1) / math.sqrt(repeats)) if repeats > 1 else 0.0
        rows.append((float(np.mean(mses)), se, float(np.mean(accs))))
    return rows
