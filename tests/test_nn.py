import math

import numpy as np
import pytest

from reconlab import nn
from reconlab.data import LabeledDataset, synth_classification


def small_batch(d=6, k=3, n=8, seed=0):
    g = np.random.default_rng(seed)
    X = g.uniform(0, 1, size=(n, d))
    y = g.integers(0, k, size=n)
    return X, y


# ----------------------------------------------------------- architecture

def test_parameter_count():
    arch = nn.MlpArchitecture((64, 4, 10))
    assert arch.parameter_count == 64 * 4 + 4 + 4 * 10 + 10 == 310
    assert arch.layer_parameter_counts() == [64 * 4 + 4, 4 * 10 + 10]


def test_architecture_validation():
    with pytest.raises(ValueError):
        nn.MlpArchitecture((5,))
    with pytest.raises(ValueError):
        nn.MlpArchitecture((5, 0, 2))
    with pytest.raises(ValueError):
        nn.MlpArchitecture((5, 3), activation="swish")


# ----------------------------------------------------------------- init

def test_init_deterministic():
    arch = nn.MlpArchitecture((12, 5, 3))
    a = nn.init_params(arch, 7).flatten()
    b = nn.init_params(arch, 7).flatten()
    assert np.array_equal(a, b)
    c = nn.init_params(arch, 8).flatten()
    assert not np.array_equal(a, c)


def test_init_biases_zero():
    p = nn.init_params(nn.MlpArchitecture((12, 5, 3)), 0)
    assert all(np.all(b == 0.0) for b in p.biases)


def test_init_std_matches_lecun():
    # empirical std of a 784-fan-in layer over ~10^5 draws vs 1/sqrt(784)
    arch = nn.MlpArchitecture((784, 10, 2))
    draws = []
    for seed in range(13):
        draws.append(nn.init_params(arch, seed).weights[0].ravel())
    w = np.concatenate(draws)
    assert w.size >= 100_000
    target = 1.0 / math.sqrt(784)
    assert abs(w.std() - target) < 0.1 * target


# --------------------------------------------------------------- forward

def test_forward_zero_weights_zero_logits():
    arch = nn.MlpArchitecture((4, 3, 2), activation="identity")
    p = nn.ModelParams(arch, [np.zeros((4, 3)), np.zeros((3, 2))],
                       [np.zeros(3), np.zeros(2)])
    assert np.all(nn.forward(p, np.ones(4)) == 0.0)


def test_forward_single_linear_layer():
    arch = nn.MlpArchitecture((3, 2), activation="identity")
    W = np.arange(6, dtype=float).reshape(3, 2)
    b = np.array([1.0, -1.0])
    p = nn.ModelParams(arch, [W], [b])
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(nn.forward(p, x), x @ W + b)


def test_forward_matches_straight_line_reference():
    arch = nn.MlpArchitecture((5, 7, 4, 3), activation="tanh")
    p = nn.init_params(arch, 3)
    x = np.random.default_rng(0).normal(size=5)
    a = x
    for i in range(3):
        z = a @ p.weights[i] + p.biases[i]
        a = np.tanh(z) if i < 2 else z
    assert np.max(np.abs(nn.forward(p, x) - a)) <= 1e-12


# ------------------------------------------------------------ loss / grad

def test_uniform_logits_loss_is_log_k():
    arch = nn.MlpArchitecture((4, 10), activation="identity")
    p = nn.ModelParams(arch, [np.zeros((4, 10))], [np.zeros(10)])
    X, y = small_batch(d=4, k=10)
    loss, _ = nn.loss_and_grad(p, X, y)
    assert abs(loss - math.log(10)) < 1e-12


@pytest.mark.parametrize("activation", sorted(nn.ACTIVATIONS))
def test_gradient_matches_finite_differences(activation):
    arch = nn.MlpArchitecture((6, 5, 4, 3), activation=activation)
    # nonzero biases: with zero ones a unit whose inputs are all dead ReLUs sits
    # exactly on its kink, where no finite difference can match
    theta = nn.init_params(arch, 11).flatten()
    theta += np.random.default_rng(3).normal(0.0, 0.1, size=theta.size)
    p = nn.ModelParams.unflatten(arch, theta)
    X, y = small_batch(d=6, k=3, seed=2)
    _, g = nn.loss_and_grad(p, X, y)
    g = g.flatten()

    h = 1e-5
    assert min(np.abs(z).min() for z in nn._forward_cached(p, X)[1][:-1]) > 100 * h
    num = np.empty_like(theta)
    for i in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        lp, _ = nn.loss_and_grad(nn.ModelParams.unflatten(arch, tp), X, y)
        lm, _ = nn.loss_and_grad(nn.ModelParams.unflatten(arch, tm), X, y)
        num[i] = (lp - lm) / (2 * h)
    scale = np.maximum(np.abs(num), 1e-6)
    assert np.max(np.abs(g - num) / scale) <= 1e-4


def test_per_example_grads_sum_to_batch_gradient():
    arch = nn.MlpArchitecture((6, 5, 3))
    p = nn.init_params(arch, 4)
    X, y = small_batch(seed=5)
    _, g = nn.loss_and_grad(p, X, y)
    per = nn.per_example_grads(p, X, y)
    # loss_and_grad is the mean; per-example grads are of the sum
    assert np.allclose(per.sum(axis=0) / len(y), g.flatten(), atol=1e-12)


def test_activation_totality():
    z = np.array([-1e6, -1.0, 0.0, 1.0, 1e6])
    for name, (f, fd) in nn.ACTIVATIONS.items():
        assert np.isfinite(f(z)).all(), name
        assert np.isfinite(fd(z)).all(), name


# ---------------------------------------------------------------- train

def make_dataset(n=60, d=8, k=3, seed=1):
    return synth_classification(d, k, n, 0.1, seed=seed)


def test_train_zero_epochs_equals_init():
    ds = make_dataset()
    arch = nn.MlpArchitecture((8, 6, 3))
    cfg = nn.TrainConfig(epochs=0, init_seed=5)
    out = nn.train(ds, arch, cfg)
    assert np.array_equal(out.flatten(), nn.init_params(arch, 5).flatten())


def test_train_zero_lr_equals_init():
    ds = make_dataset()
    arch = nn.MlpArchitecture((8, 6, 3))
    cfg = nn.TrainConfig(learning_rate=0.0, epochs=5, init_seed=5)
    out = nn.train(ds, arch, cfg)
    assert np.array_equal(out.flatten(), nn.init_params(arch, 5).flatten())


def test_train_bitwise_deterministic():
    ds = make_dataset()
    arch = nn.MlpArchitecture((8, 6, 3))
    for cfg in (nn.TrainConfig(epochs=20),
                nn.TrainConfig(optimizer="sgd_momentum", batch_size=16, epochs=10),
                nn.TrainConfig(optimizer="dpgd", clip_norm=1.0, noise_multiplier=2.0,
                               epochs=10)):
        a = nn.train(ds, arch, cfg).flatten()
        b = nn.train(ds, arch, cfg).flatten()
        assert np.array_equal(a, b)


def test_train_separable_blobs_high_accuracy():
    ds = synth_classification(8, 2, 200, 0.05, seed=3)
    arch = nn.MlpArchitecture((8, 6, 2))
    cfg = nn.TrainConfig(epochs=100, learning_rate=0.2, momentum=0.9)
    model = nn.train(ds, arch, cfg)
    assert nn.accuracy(model, ds) >= 0.99


def test_train_reports_divergence():
    ds = make_dataset()
    arch = nn.MlpArchitecture((8, 6, 3))
    cfg = nn.TrainConfig(learning_rate=1e150, epochs=50)
    with pytest.raises(nn.DivergenceError):
        nn.train(ds, arch, cfg)


# ---------------------------------------------------------------- dp-gd

def test_clip_rows_bounds_norms():
    g = np.random.default_rng(0).normal(size=(40, 25)) * 10
    clipped = nn.clip_rows(g, 1.5)
    assert np.all(np.linalg.norm(clipped, axis=1) <= 1.5 + 1e-12)
    small = np.full((3, 4), 0.01)
    assert np.array_equal(nn.clip_rows(small, 1.5), small)


def test_dpgd_sigma_zero_large_clip_matches_gd():
    # with no noise and a clip bound above every per-example norm, DP-GD
    # reduces to full-batch GD on the mean gradient
    ds = make_dataset(n=30)
    arch = nn.MlpArchitecture((8, 4, 3))
    base = nn.TrainConfig(epochs=15, learning_rate=0.1, momentum=0.5)
    dp = nn.TrainConfig(optimizer="dpgd", epochs=15, learning_rate=0.1, momentum=0.5,
                        clip_norm=1e6, noise_multiplier=0.0)
    a = nn.train(ds, arch, base).flatten()
    b = nn.train(ds, arch, dp).flatten()
    assert np.allclose(a, b, atol=1e-9)


def test_dpgd_noise_moves_parameters():
    ds = make_dataset(n=30)
    arch = nn.MlpArchitecture((8, 4, 3))
    quiet = nn.TrainConfig(optimizer="dpgd", epochs=10, clip_norm=1.0,
                           noise_multiplier=0.0)
    noisy = nn.TrainConfig(optimizer="dpgd", epochs=10, clip_norm=1.0,
                           noise_multiplier=10.0)
    a = nn.train(ds, arch, quiet)
    b = nn.train(ds, arch, noisy)
    assert a.l2_distance(b) > 0.0


def test_dpgd_validates_config():
    with pytest.raises(ValueError):
        nn.TrainConfig(optimizer="dpgd")
    with pytest.raises(ValueError):
        nn.TrainConfig(optimizer="dpgd", clip_norm=1.0, noise_multiplier=-1.0)


def test_with_seeds_replaces_only_given():
    cfg = nn.TrainConfig(init_seed=1, shuffle_seed=2, noise_seed=3)
    out = cfg.with_seeds(noise_seed=9)
    assert (out.init_seed, out.shuffle_seed, out.noise_seed) == (1, 2, 9)
