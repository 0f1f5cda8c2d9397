import math
import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reconlab import nn
from reconlab.data import LabeledDataset, synth_classification
from reconlab.rng import Rng


def small_batch(d=6, k=3, n=8, seed=0):
    g = np.random.default_rng(seed)
    X = g.uniform(0, 1, size=(n, d))
    y = g.integers(0, k, size=n)
    return X, y


# ----------------------------------------------------------- architecture

def test_parameter_count():
    arch = nn.MlpArchitecture((64, 4, 10))
    assert arch.parameter_count == 64 * 4 + 4 + 4 * 10 + 10 == 310
    p = nn.ModelParams(arch, np.zeros(310))
    assert [w.size + b.size for w, b in zip(p.weights, p.biases)] == [64 * 4 + 4, 4 * 10 + 10]


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


# ---------------------------------------------------------------- params

def test_model_params_rejects_wrong_length():
    arch = nn.MlpArchitecture((4, 3, 2))
    for flat in (np.zeros(arch.parameter_count - 1), np.zeros((2, arch.parameter_count + 1)),
                 np.float64(0.0)):
        with pytest.raises(ValueError):
            nn.ModelParams(arch, flat)


@pytest.mark.parametrize("lead", [(), (5,)])
def test_model_params_views_write_through(lead):
    arch = nn.MlpArchitecture((4, 3, 2))
    p = nn.ModelParams(arch, np.zeros(lead + (arch.parameter_count,)))
    assert [w.shape for w in p.weights] == [lead + (4, 3), lead + (3, 2)]
    assert [b.shape for b in p.biases] == [lead + (3,), lead + (2,)]
    # layout: per layer, the (in, out) weights row-major, then the biases
    p.weights[0][..., 1, 2] = 1.0
    p.biases[0][..., 1] = 2.0
    p.weights[1][..., 2, 0] = 3.0
    p.biases[1][..., 1] = 4.0
    want = np.zeros(arch.parameter_count)
    want[[1 * 3 + 2, 12 + 1, 15 + 2 * 2 + 0, 21 + 1]] = [1.0, 2.0, 3.0, 4.0]
    assert np.array_equal(p.flat, np.broadcast_to(want, p.flat.shape))
    assert np.array_equal(p.flatten(), p.flat)


def test_model_params_pickle_keeps_views():
    p = nn.init_params(nn.MlpArchitecture((4, 3, 2)), 1)
    q = pickle.loads(pickle.dumps(p))
    assert np.array_equal(q.flat, p.flat)
    q.weights[1][0, 0] = 7.0
    assert q.flat[15] == 7.0


# --------------------------------------------------------------- forward

def test_forward_zero_weights_zero_logits():
    arch = nn.MlpArchitecture((4, 3, 2), activation="identity")
    p = nn.ModelParams(arch, np.zeros(arch.parameter_count))
    assert np.all(nn.forward(p, np.ones(4)) == 0.0)


def test_forward_single_linear_layer():
    arch = nn.MlpArchitecture((3, 2), activation="identity")
    W = np.arange(6, dtype=float).reshape(3, 2)
    b = np.array([1.0, -1.0])
    p = nn.ModelParams(arch, np.concatenate([W.ravel(), b]))
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
    p = nn.ModelParams(arch, np.zeros(arch.parameter_count))
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


def _per_example_grads_reference(params, X, y):
    # per-layer einsum into (n, P) offsets, as a hand-written loop
    arch = params.arch
    n, ws = len(y), arch.layer_widths
    out = np.empty((n, arch.parameter_count))
    activations, pre = nn._forward_cached(params, X)
    _, dact = nn.ACTIVATIONS[arch.activation]
    delta = np.exp(nn._log_softmax(activations[-1]))
    delta[np.arange(n), y] -= 1.0
    ends = np.cumsum([ws[i] * ws[i + 1] + ws[i + 1] for i in range(arch.num_layers)])
    for i in range(arch.num_layers - 1, -1, -1):
        w_end = ends[i] - ws[i + 1]
        w_start = w_end - ws[i] * ws[i + 1]
        gw = out[:, w_start:w_end].reshape(n, ws[i], ws[i + 1])
        np.einsum("ni,nj->nij", activations[i], delta, out=gw)
        out[:, w_end : ends[i]] = delta
        if i > 0:
            delta = (delta @ params.weights[i].T) * dact(pre[i - 1])
    return out


@pytest.mark.parametrize("activation", sorted(nn.ACTIVATIONS))
def test_per_example_grads_match_offset_loop_bitwise(activation):
    arch = nn.MlpArchitecture((6, 5, 4, 3), activation=activation)
    theta = nn.init_params(arch, 11).flatten()
    theta += np.random.default_rng(3).normal(0.0, 0.1, size=theta.size)
    p = nn.ModelParams(arch, theta)
    X, y = small_batch(d=6, k=3, n=9, seed=2)
    want = _per_example_grads_reference(p, X, y)
    assert np.array_equal(nn.per_example_grads(p, X, y), want)
    out = np.full_like(want, np.nan)
    assert nn.per_example_grads(p, X, y, out=out) is out
    assert np.array_equal(out, want)


def test_elu_equals_where_form_bitwise():
    # the branch-free ELU and derivative against their np.where definitions, on
    # signed zeros, infinities, NaN, subnormals and where exp under/overflows
    tiny = np.finfo(np.float64).tiny
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, tiny / 3, -tiny / 3,
               tiny, -tiny, 745.0, -745.0, 1e-17, -1e-17]
    z = np.concatenate([special, np.random.default_rng(0).normal(0.0, 10.0, 200)])
    with np.errstate(invalid="ignore"):
        want = np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))
        want_d = np.where(z > 0, 1.0, np.exp(np.minimum(z, 0.0)))
        assert nn._elu(z).tobytes() == want.tobytes()
        assert nn._elu_d(z).tobytes() == want_d.tobytes()
        out = np.empty_like(z)
        assert nn._elu(z, out=out) is out and out.tobytes() == want.tobytes()


@pytest.mark.parametrize("activation", sorted(nn.ACTIVATIONS))
def test_activation_out_matches_fresh_result(activation):
    z = np.concatenate([[0.0, -0.0, 1e-300, -1e-300],
                        np.random.default_rng(1).normal(0.0, 3.0, 60)])
    for f in nn.ACTIVATIONS[activation]:
        out = np.full_like(z, np.nan)
        assert f(z, out=out) is out
        assert out.tobytes() == np.asarray(f(z), dtype=np.float64).tobytes()


def test_log_softmax_row_max_over_columns():
    g = np.random.default_rng(2)
    logits = g.normal(0.0, 5.0, size=(37, 10))
    logits[3] = [-0.0, 0.0] * 5
    logits[5, 4] = np.inf
    with np.errstate(invalid="ignore"):
        s = logits - logits.max(axis=1, keepdims=True)
        want = s - np.log(np.exp(s).sum(axis=1, keepdims=True))
        assert nn._log_softmax(logits).tobytes() == want.tobytes()


def test_workspace_short_batch_matches_fresh_call():
    # one exactly sized workspace per batch length, each reused
    arch = nn.MlpArchitecture((6, 5, 4, 3))
    p = nn.init_params(arch, 2)
    X, y = small_batch(d=6, k=3, n=9, seed=4)
    works = {n: nn._Workspace(arch, n) for n in (9, 4, 1)}
    grad = nn.ModelParams(arch, np.empty(arch.parameter_count))
    for n in (9, 4, 9, 1):
        want_loss, want = nn.loss_and_grad(p, X[:n], y[:n])
        loss, got = nn.loss_and_grad(p, X[:n], y[:n], grad, _work=works[n])
        assert loss == want_loss and got.flat.tobytes() == want.flat.tobytes()
        per = nn.per_example_grads(p, X[:n], y[:n], _work=works[n])
        assert per.tobytes() == nn.per_example_grads(p, X[:n], y[:n]).tobytes()


def test_loss_and_grad_rejects_bad_labels():
    arch = nn.MlpArchitecture((6, 3))
    p = nn.init_params(arch, 0)
    X, _ = small_batch(d=6, n=4)
    for bad in ([0, 1, 3, 0], [0, -1, 2, 0]):
        with pytest.raises(IndexError):
            nn.loss_and_grad(p, X, np.array(bad))
    for f in (nn.loss_and_grad, nn.per_example_grads):
        with pytest.raises(ValueError, match="labels"):
            f(p, X, np.array([0, 1, 2]))


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


def test_train_refuses_an_empty_dataset():
    arch = nn.MlpArchitecture((8, 6, 3))
    empty = LabeledDataset(np.empty((0, 8)), np.empty(0, dtype=np.int64), 3)
    for cfg in (nn.TrainConfig(epochs=2),
                nn.TrainConfig(optimizer="dpgd", clip_norm=1.0, noise_multiplier=1.0, epochs=2)):
        with pytest.raises(ValueError, match="empty batch"):
            nn.train(empty, arch, cfg)
    assert nn.train(empty, arch, nn.TrainConfig(epochs=0)).flat.tobytes() == \
        nn.init_params(arch, 0).flat.tobytes()


@pytest.mark.parametrize("batch_size,lengths", [(16, [16, 12]), (15, [15]), (100, [60])])
def test_sgd_train_makes_one_workspace_per_batch_length_before_its_first_step(
        batch_size, lengths, monkeypatch):
    made, at_first_step = [], []

    class Counted(nn._Workspace):
        def __init__(self, arch, n, *args, **kwargs):
            made.append(n)
            super().__init__(arch, n, *args, **kwargs)

    loss_and_grad = nn.loss_and_grad

    def step(*args, **kwargs):
        if not at_first_step:
            at_first_step.append(list(made))
        return loss_and_grad(*args, **kwargs)

    monkeypatch.setattr(nn, "_Workspace", Counted)
    monkeypatch.setattr(nn, "loss_and_grad", step)
    cfg = nn.TrainConfig(optimizer="sgd_momentum", batch_size=batch_size, epochs=3)
    nn.train(make_dataset(n=60), nn.MlpArchitecture((8, 6, 3)), cfg)
    assert made == lengths and at_first_step == [lengths]


def stack_of_datasets(K=3, n=12, d=8, k=3):
    """K datasets of n rows sharing n - 1 and differing in the last, as one
    (K, n, d) stack and as K datasets."""
    X, y = small_batch(d=d, k=k, n=n - 1 + K)
    Xs = np.stack([np.vstack([X[: n - 1], X[n - 1 + i]]) for i in range(K)])
    ys = np.stack([np.append(y[: n - 1], y[n - 1 + i]) for i in range(K)])
    return SimpleNamespace(X=Xs, y=ys), [LabeledDataset(Xs[i], ys[i], k) for i in range(K)]


@pytest.mark.parametrize("cfg", [
    nn.TrainConfig(epochs=6),
    nn.TrainConfig(optimizer="sgd_momentum", batch_size=5, epochs=4),
    nn.TrainConfig(optimizer="dpgd", clip_norm=0.7, noise_multiplier=1.5, epochs=4),
], ids=["gd", "sgd", "dpgd"])
def test_train_a_stack_gives_each_model_its_bits_alone(cfg):
    stack, alone = stack_of_datasets()
    arch = nn.MlpArchitecture((8, 6, 3))
    configs = [replace(cfg, init_seed=i, noise_seed=10 + i) for i in range(3)]
    trained = nn.train(stack, arch, *configs)
    assert trained.flat.shape == (3, arch.parameter_count)
    for row, ds, c in zip(trained.flat, alone, configs):
        assert row.tobytes() == nn.train(ds, arch, c).flat.tobytes()


def test_train_refuses_a_stack_it_cannot_train():
    stack, _ = stack_of_datasets()
    arch = nn.MlpArchitecture((8, 6, 3))
    cfg = nn.TrainConfig(epochs=2)
    with pytest.raises(ValueError, match="2 configs for labels of shape"):
        nn.train(stack, arch, cfg, cfg)
    with pytest.raises(ValueError, match="differ only in init_seed and noise_seed"):
        nn.train(stack, arch, cfg, replace(cfg, init_seed=4), replace(cfg, epochs=3))


def test_stacked_step_gives_each_model_its_bits_alone():
    stack, alone = stack_of_datasets()
    arch = nn.MlpArchitecture((8, 6, 3))
    params = nn.ModelParams(arch, np.stack([nn.init_params(arch, i).flat for i in range(3)]))
    loss, grad = nn.loss_and_grad(params, stack.X, stack.y)
    per_example = nn.per_example_grads(params, stack.X, stack.y)
    assert loss.shape == (3,) and per_example.shape == (3, 12, arch.parameter_count)
    for i, ds in enumerate(alone):
        one = nn.init_params(arch, i)
        want_loss, want_grad = nn.loss_and_grad(one, ds.X, ds.y)
        assert loss[i] == want_loss
        assert grad.flat[i].tobytes() == want_grad.flat.tobytes()
        assert per_example[i].tobytes() == nn.per_example_grads(one, ds.X, ds.y).tobytes()


@pytest.mark.filterwarnings("error")
def test_a_stack_hands_back_the_models_before_the_first_divergence():
    # model 1's last point is far out and of a class the model does not
    # predict for it: its loss overflows, and models 2 and 3 train on beside it
    stack, alone = stack_of_datasets(K=4)
    stack.X[1, -1], stack.y[1, -1] = 1e150, 1
    arch = nn.MlpArchitecture((8, 6, 3))
    cfg = nn.TrainConfig(epochs=4)
    with pytest.raises(nn.DivergenceError) as alone_error:
        nn.train(LabeledDataset(stack.X[1], stack.y[1], 3), arch, cfg)
    assert str(alone_error.value) == "non-finite loss at epoch 1"
    with pytest.raises(nn.DivergenceError) as e:
        nn.train(stack, arch, *[cfg] * 4)
    assert str(e.value) == str(alone_error.value)
    assert e.value.trained.flat.shape == (1, arch.parameter_count)
    assert e.value.trained.flat[0].tobytes() == nn.train(alone[0], arch, cfg).flat.tobytes()



def diverging_stack(arch):
    """A stack of 4 (GD, 4 epochs, one config) whose model 2 diverges at
    epoch 0 and model 1 at epoch 3, and the error each raises alone."""
    stack, _ = stack_of_datasets(K=4)
    # model 2's last point is at the largest scale, signed as model 0's first
    # hidden unit's weights: that unit overflows in the first forward pass
    stack.X[1, -1], stack.y[1, -1] = -1e154, 0
    stack.X[2, -1], stack.y[2, -1] = 1e308 * np.sign(nn.init_params(arch, 0).weights[0][:, 0]), 0
    cfg = nn.TrainConfig(epochs=4)
    alone = {}
    for k in (1, 2):
        with pytest.raises(nn.DivergenceError) as e:
            nn.train(LabeledDataset(stack.X[k], stack.y[k], 3), arch, cfg)
        alone[k] = str(e.value)
    assert alone == {1: "non-finite loss at epoch 3", 2: "non-finite loss at epoch 0"}
    return stack, cfg, alone


@pytest.mark.filterwarnings("error")
def test_a_diverged_model_stays_in_its_stack():
    arch = nn.MlpArchitecture((8, 6, 3))
    stack, cfg, alone = diverging_stack(arch)
    first = LabeledDataset(stack.X[0].copy(), stack.y[0].copy(), 3)
    with pytest.raises(nn.DivergenceError) as e:
        nn.train(stack, arch, *[cfg] * 4)
    # model 2 diverged first, but model 1 is first in the stack
    assert str(e.value) == alone[1]
    assert e.value.trained.flat.shape == (1, arch.parameter_count)
    assert e.value.trained.flat[0].tobytes() == nn.train(first, arch, cfg).flat.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("K", [1, 4])
def test_training_stops_once_model_0_diverges(K, monkeypatch):
    arch = nn.MlpArchitecture((8, 6, 3))
    stack, cfg, alone = diverging_stack(arch)
    # model 2's diverging point moves to model 0
    stack.X[0], stack.y[0] = stack.X[2], stack.y[2]
    steps = []
    loss_and_grad = nn.loss_and_grad

    def step(*args, **kwargs):
        steps.append(1)
        return loss_and_grad(*args, **kwargs)

    monkeypatch.setattr(nn, "loss_and_grad", step)
    data = LabeledDataset(stack.X[0], stack.y[0], 3) if K == 1 else stack
    with pytest.raises(nn.DivergenceError) as e:
        nn.train(data, arch, *[cfg] * K)
    assert str(e.value) == alone[2]
    assert e.value.trained.flat.shape == (0, arch.parameter_count)
    assert len(steps) == 1  # of 4 epochs


# ---------------------------------------------------------------- dp-gd

def test_clip_rows_bounds_norms():
    g = np.random.default_rng(0).normal(size=(40, 25)) * 10
    clipped = nn.clip_rows(g, 1.5)
    assert np.all(np.linalg.norm(clipped, axis=1) <= 1.5 + 1e-12)
    small = np.full((3, 4), 0.01)
    assert np.array_equal(nn.clip_rows(small, 1.5), small)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 600), k=st.integers(1, 40), extra=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_col_sum_equals_np_sum_bitwise(n, k, extra, seed):
    # columns of wide-ranging values, all -0.0, mixed +-0.0, or pairs that
    # cancel to an exact zero; a is the leading rows of a larger buffer
    g = np.random.default_rng(seed)
    buf = g.normal(size=(n + extra, k)) * 10.0 ** g.integers(-8, 17, size=(n + extra, k))
    kind = g.integers(0, 4, size=k)
    buf[:, kind == 1] = -0.0
    signed_zero = np.where(g.random((n + extra, k)) < 0.5, -0.0, 0.0)
    buf[:, kind == 2] = signed_zero[:, kind == 2]
    half = n // 2
    buf[half : 2 * half, kind == 3] = -buf[:half, kind == 3]
    a = buf[:n]
    out = np.full(k, np.nan)
    assert nn._col_sum(a, out) is out
    assert out.tobytes() == np.sum(a, axis=0).tobytes()


def _train_dp_reference(dataset, arch, config):
    # DP-GD with the clipped rows summed by np.sum, one step at a time
    X, y, n = dataset.X, dataset.y, len(dataset.y)
    C, sigma = config.clip_norm, config.noise_multiplier
    params = nn.init_params(arch, config.init_seed)
    theta, velocity = params.flat, np.zeros(arch.parameter_count)
    noise_rng = Rng(config.noise_seed)
    for step in range(config.epochs):
        g = np.sum(nn.clip_rows(nn.per_example_grads(params, X, y), C), axis=0)
        if sigma > 0:
            g += noise_rng.child(("noise", step)).once().normal(0.0, sigma * C, size=g.shape)
        g /= n
        velocity *= config.momentum
        velocity += g
        theta -= config.learning_rate * velocity
    return params


@pytest.mark.parametrize("sigma", [0.0, 1.0])
@pytest.mark.parametrize("activation", sorted(nn.ACTIVATIONS))
def test_train_dp_matches_clip_rows_sum_bitwise(activation, sigma):
    ds = make_dataset(n=40)
    arch = nn.MlpArchitecture((8, 6, 5, 3), activation=activation)
    # a clip bound that, for every activation, some per-example gradients
    # exceed and some do not
    cfg = nn.TrainConfig(optimizer="dpgd", epochs=12, learning_rate=0.5, clip_norm=1.3,
                         noise_multiplier=sigma, init_seed=3, noise_seed=4)
    want = _train_dp_reference(ds, arch, cfg).flat
    assert nn.train(ds, arch, cfg).flat.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("batch_size", [0, -3])
def test_train_config_rejects_nonpositive_batch_size(batch_size):
    # a negative size once trained zero steps and returned the initial parameters
    with pytest.raises(ValueError, match="batch_size"):
        nn.TrainConfig(optimizer="sgd_momentum", batch_size=batch_size)
