import os
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from reconlab import metrics, nn, persist, shadow
from reconlab.data import LabeledDataset, SplitSpec, synth_classification, split


def tiny_setup(d=8, k=3, fixed_n=30, pool_n=60, seed=1):
    ds = synth_classification(d, k, fixed_n + pool_n + 5, 0.15, seed=seed)
    fixed, pool, targets = split(ds, SplitSpec(fixed_n, pool_n, 5, split_seed=2))
    arch = nn.MlpArchitecture((d, 6, k))
    cfg = nn.TrainConfig(epochs=10, init_seed=11, shuffle_seed=12, noise_seed=13)
    return fixed, pool, targets, arch, cfg


# ------------------------------------------------------------ featurizers

def test_feature_lengths_match_reference_mlp():
    # width-10 hidden layer over 784 inputs and 10 classes
    arch = nn.MlpArchitecture((784, 10, 10))
    model = nn.init_params(arch, 0)
    assert shadow.featurize(model, shadow.Featurizer("whitebox")).shape == (7960,)
    assert shadow.featurize(model, shadow.Featurizer("layers", layers=(1,))).shape == (110,)
    probe = np.random.default_rng(0).uniform(size=(200, 784))
    assert shadow.featurize(model, shadow.Featurizer("blackbox", probe=probe)).shape == (2000,)


def test_featurizer_layer_bounds():
    model = nn.init_params(nn.MlpArchitecture((4, 3, 2)), 0)
    with pytest.raises(ValueError):
        shadow.featurize(model, shadow.Featurizer("layers", layers=(5,)))


def test_whitebox_equals_flatten():
    model = nn.init_params(nn.MlpArchitecture((5, 4, 3)), 1)
    assert np.array_equal(
        shadow.featurize(model, shadow.Featurizer("whitebox")), model.flatten()
    )


# ---------------------------------------------------------- normalization

def test_norm_stats_zero_mean_unit_var():
    F = np.random.default_rng(0).normal(3.0, 2.5, size=(500, 12))
    stats = shadow.NormStats.fit(F)
    out = stats.apply(F)
    assert np.max(np.abs(out.mean(axis=0))) <= 1e-9
    assert np.max(np.abs(out.std(axis=0) - 1.0)) <= 1e-9


def test_norm_stats_constant_coordinate():
    F = np.random.default_rng(1).normal(size=(100, 3))
    F[:, 1] = 4.2
    stats = shadow.NormStats.fit(F)
    out = stats.apply(F)
    assert np.max(np.abs(out[:, 1])) <= 1e-12
    assert np.isfinite(out).all()


# -------------------------------------------------------------- shadows

def test_gen_shadows_deterministic_and_finite():
    fixed, pool, _, arch, cfg = tiny_setup()
    feat = shadow.Featurizer("whitebox")
    a = shadow.gen_shadows(fixed, pool, arch, cfg, feat)
    b = shadow.gen_shadows(fixed, pool, arch, cfg, feat)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)
    assert np.isfinite(a.features).all()
    assert len(a) == len(pool)
    normed = shadow.NormStats.fit(a.features).apply(a.features)
    assert np.max(np.abs(normed.mean(axis=0))) <= 1e-9


def test_shared_init_shadows_reproduce_release():
    # informed-adversary consistency: a shadow trained on the released target
    # with the shared seeds is bitwise the released model
    fixed, pool, targets, arch, cfg = tiny_setup()
    release = nn.train(fixed.with_point(targets[0]), arch, cfg)
    one_target_pool = pool.subset([0]).with_point(targets[0]).subset([1])
    models = shadow.gen_shadow_models(fixed, one_target_pool, arch, cfg)
    assert np.array_equal(models[0].flatten(), release.flatten())


def test_random_init_ablation_changes_models():
    fixed, pool, _, arch, cfg = tiny_setup(pool_n=4)
    shared = shadow.gen_shadow_models(fixed, pool, arch, cfg, random_init=False)
    varied = shadow.gen_shadow_models(fixed, pool, arch, cfg, random_init=True)
    assert any(not np.array_equal(s.flatten(), v.flatten())
               for s, v in zip(shared, varied))
    # and distinct shadows get distinct inits under the ablation
    assert shadow.shadow_config(cfg, 0, True).init_seed != \
        shadow.shadow_config(cfg, 1, True).init_seed


def test_parallel_serial_equivalence(monkeypatch):
    fixed, pool, _, arch, cfg = tiny_setup(pool_n=8)
    feat = shadow.Featurizer("whitebox")
    monkeypatch.setenv("RECONLAB_THREADS", "1")
    serial = shadow.gen_shadows(fixed, pool, arch, cfg, feat)
    monkeypatch.setenv("RECONLAB_THREADS", "4")
    parallel = shadow.gen_shadows(fixed, pool, arch, cfg, feat)
    assert np.array_equal(serial.features, parallel.features)


def per_point_configs(cfg, n):
    return [replace(cfg, init_seed=cfg.init_seed + i) for i in range(n)]


def test_train_many_yields_nn_train_per_point_in_order():
    fixed, pool, _, arch, cfg = tiny_setup(pool_n=4)
    configs = per_point_configs(cfg, len(pool))
    models = list(shadow.train_many(fixed, pool, arch, configs))
    assert len(models) == len(pool)
    for i, model in enumerate(models):
        want = nn.train(fixed.with_point(pool[i]), arch, configs[i])
        assert np.array_equal(model.flatten(), want.flatten())


def test_train_many_serial_and_parallel_give_same_bits(monkeypatch):
    fixed, pool, _, arch, cfg = tiny_setup(pool_n=6)
    configs = per_point_configs(cfg, len(pool))
    monkeypatch.setenv("RECONLAB_THREADS", "1")
    serial = list(shadow.train_many(fixed, pool, arch, configs))
    monkeypatch.setenv("RECONLAB_THREADS", "2")
    parallel = list(shadow.train_many(fixed, pool, arch, configs))
    assert len(parallel) == len(serial)
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.flatten(), b.flatten())


@pytest.mark.parametrize("workers", [1, 2])
def test_train_many_divergence_names_the_point(monkeypatch, workers):
    fixed, pool, _, arch, cfg = tiny_setup(pool_n=3)
    configs = [cfg, cfg, replace(cfg, learning_rate=1e300)]
    monkeypatch.setenv("RECONLAB_THREADS", str(workers))
    with pytest.raises(nn.DivergenceError, match="point 2 diverged"):
        list(shadow.train_many(fixed, pool, arch, configs))


def test_train_many_refuses_mismatched_lengths():
    fixed, pool, _, arch, cfg = tiny_setup(pool_n=4)
    with pytest.raises(ValueError, match="4 points, 2 configs and 2 names"):
        list(shadow.train_many(fixed, pool, arch, [cfg] * 2))
    with pytest.raises(ValueError, match="4 points, 4 configs and 3 names"):
        list(shadow.train_many(fixed, pool, arch, [cfg] * 4, names=["a", "b", "c"]))


STACKED_OPTIMIZERS = {
    "gd": dict(),
    "sgd_full_batch": dict(optimizer="sgd_momentum"),
    "sgd_minibatch": dict(optimizer="sgd_momentum", batch_size=13),
    "dpgd_sigma_0": dict(optimizer="dpgd", clip_norm=1.3, noise_multiplier=0.0),
    "dpgd_sigma_2": dict(optimizer="dpgd", clip_norm=1.3, noise_multiplier=2.0),
}


def pin_depth(monkeypatch, fixed, arch, depth=8):
    """Set STACK_VALUES so that models on fixed plus one point stack depth deep."""
    monkeypatch.setattr(shadow, "STACK_VALUES",
                        depth * (len(fixed) + 1) * sum(arch.layer_widths[1:]))
    assert shadow._depth(len(fixed) + 1, arch) == depth


def stacked_jobs(optimizer, activation, monkeypatch):
    """19 points, so stacks of 8, 3, 1 and 7 at a depth of 8: point 11's
    learning rate breaks the run, and the odd points draw a random init. The
    width-1 hidden layer sums its single bias column with np.sum."""
    fixed, pool, _, _, cfg = tiny_setup(pool_n=19)
    arch = nn.MlpArchitecture((8, 6, 1, 3), activation=activation)
    pin_depth(monkeypatch, fixed, arch)
    cfg = replace(cfg, **STACKED_OPTIMIZERS[optimizer])
    configs = [shadow.shadow_config(cfg, i, random_init=i % 2 == 1) for i in range(len(pool))]
    configs[11] = replace(configs[11], learning_rate=0.1)
    return fixed, pool, arch, configs


def assert_models_match_nn_train(models, fixed, pool, arch, configs):
    assert len(models) == len(configs)
    for i, model in enumerate(models):
        want = nn.train(fixed.with_point(pool[i]), arch, configs[i])
        assert model.flat.tobytes() == want.flat.tobytes(), i


@pytest.mark.parametrize("optimizer", sorted(STACKED_OPTIMIZERS))
@pytest.mark.parametrize("activation", sorted(nn.ACTIVATIONS))
def test_train_many_stacks_match_nn_train_bitwise(activation, optimizer, monkeypatch):
    fixed, pool, arch, configs = stacked_jobs(optimizer, activation, monkeypatch)
    assert [len(s) for s in shadow._stacks(configs, 8)] == [8, 3, 1, 7]
    models = list(shadow.train_many(fixed, pool, arch, configs))
    assert_models_match_nn_train(models, fixed, pool, arch, configs)


@pytest.mark.parametrize("optimizer", ["sgd_minibatch", "dpgd_sigma_2"])
def test_train_many_stacks_in_a_pool_match_nn_train_bitwise(optimizer, monkeypatch):
    fixed, pool, arch, configs = stacked_jobs(optimizer, "tanh", monkeypatch)
    monkeypatch.setenv("RECONLAB_THREADS", "2")
    models = list(shadow.train_many(fixed, pool, arch, configs))
    assert_models_match_nn_train(models, fixed, pool, arch, configs)


def test_stack_depth_fills_stack_values():
    # desk models (501 rows, 64-10-10) stack 8 deep, the A4 shapes (201
    # rows, 32-8-10) 22, and a model wider than STACK_VALUES trains alone
    assert shadow._depth(501, nn.MlpArchitecture((64, 10, 10))) == 8
    assert shadow._depth(201, nn.MlpArchitecture((32, 8, 10))) == 22
    assert shadow._depth(1, nn.MlpArchitecture((2, shadow.STACK_VALUES + 1))) == 1


@pytest.mark.parametrize("optimizer", ["gd", "dpgd_sigma_2"])
def test_train_many_one_deep_stack_at_a4_shapes_matches_nn_train_bitwise(optimizer,
                                                                         monkeypatch):
    ds = synth_classification(32, 10, 230, 0.15, seed=3)
    fixed, pool, _ = split(ds, SplitSpec(200, 22, 0, split_seed=4))
    arch = nn.MlpArchitecture((32, 8, 10))
    cfg = replace(nn.TrainConfig(epochs=3, init_seed=5, noise_seed=6),
                  **STACKED_OPTIMIZERS[optimizer])
    configs = [shadow.shadow_config(cfg, i, random_init=i % 2 == 1) for i in range(len(pool))]
    sizes = []
    train_stack = shadow._train_stack

    def recording(slot, arch, stack_points, configs):
        sizes.append(len(stack_points))
        return train_stack(slot, arch, stack_points, configs)

    monkeypatch.setattr(shadow, "_train_stack", recording)
    monkeypatch.setenv("RECONLAB_THREADS", "1")
    models = list(shadow.train_many(fixed, pool, arch, configs))
    assert sizes == [22]
    assert_models_match_nn_train(models, fixed, pool, arch, configs)


@pytest.mark.parametrize("workers", [1, 2])
def test_train_many_dp_shadows_of_one_init_at_a4_shapes_match_nn_train_bitwise(workers,
                                                                              monkeypatch):
    # dp-sweep's shadows: one init_seed, so every stack's models have all
    # rows but the last in common at the first step
    ds = synth_classification(32, 10, 230, 0.15, seed=3)
    fixed, pool, _ = split(ds, SplitSpec(200, 22, 0, split_seed=4))
    arch = nn.MlpArchitecture((32, 8, 10))
    cfg = replace(nn.TrainConfig(epochs=3, init_seed=5, noise_seed=6),
                  **STACKED_OPTIMIZERS["dpgd_sigma_2"])
    configs = [shadow.shadow_config(cfg, i, random_init=False) for i in range(len(pool))]
    seen = []
    per_example_grads = nn.per_example_grads

    def spy(params, X, y, *args, **kwargs):
        seen.append((len(X), kwargs["_shared"]))
        return per_example_grads(params, X, y, *args, **kwargs)

    monkeypatch.setattr(nn, "per_example_grads", spy)
    monkeypatch.setenv("RECONLAB_THREADS", str(workers))
    models = list(shadow.train_many(fixed, pool, arch, configs))
    monkeypatch.undo()
    depth = 22 // workers
    assert sorted(seen) == sorted([(depth, 200), (depth, 0), (depth, 0)] * workers)
    assert_models_match_nn_train(models, fixed, pool, arch, configs)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("points", [50, 300])
def test_train_many_stacks_desk_models_eight_deep(points, workers, monkeypatch):
    # the desk shapes of train-released and gen-shadows in the desk_gd_attack
    # benchmark: 500 fixed rows, 64-10-10, 50 targets or 300 shadows
    fixed = LabeledDataset(np.zeros((500, 64)), np.zeros(500, dtype=np.int64), 10)
    pool = LabeledDataset(np.zeros((points, 64)), np.zeros(points, dtype=np.int64), 10)
    arch = nn.MlpArchitecture((64, 10, 10))
    depths, sizes = [], []

    def untrained(slot, arch, stack_points, configs):
        depths.append(len(slot[0]))
        sizes.append(len(stack_points))
        return np.zeros((len(stack_points), arch.parameter_count)), None

    monkeypatch.setattr(shadow, "_train_stack", untrained)
    monkeypatch.setenv("RECONLAB_THREADS", str(workers))
    assert len(list(shadow.train_many(fixed, pool, arch, [nn.TrainConfig()] * points))) == points
    assert set(depths) == {8}
    assert sorted(sizes, reverse=True) == [8] * (points // 8) + [points % 8]


def check_every_worker_gets_a_stack(workers, points, stacks, monkeypatch):
    sizes, threads = [], set()
    train_stack = shadow._train_stack

    def recording(slot, arch, stack_points, configs):
        sizes.append(len(stack_points))
        threads.add(threading.current_thread())
        return train_stack(slot, arch, stack_points, configs)

    fixed, pool, _, arch, cfg = tiny_setup(pool_n=points)
    configs = [shadow.shadow_config(cfg, i, random_init=True) for i in range(points)]
    pin_depth(monkeypatch, fixed, arch)
    monkeypatch.setattr(shadow, "_train_stack", recording)
    monkeypatch.setenv("RECONLAB_THREADS", str(workers))
    models = list(shadow.train_many(fixed, pool, arch, configs))
    # the threads finish their stacks in either order
    assert sorted(sizes, reverse=True) == stacks
    assert threading.main_thread() not in threads and len(threads) <= workers
    assert_models_match_nn_train(models, fixed, pool, arch, configs)


@pytest.mark.parametrize("points,stacks", [(8, [4, 4]), (11, [6, 5]), (19, [8, 8, 3])])
def test_train_many_gives_every_worker_a_stack(points, stacks, monkeypatch):
    check_every_worker_gets_a_stack(2, points, stacks, monkeypatch)


def test_train_many_gives_one_worker_full_stacks_off_the_main_thread(monkeypatch):
    check_every_worker_gets_a_stack(1, 19, [8, 8, 3], monkeypatch)


def test_train_many_trains_two_stacks_at_once(monkeypatch):
    # each stack waits for the other at the barrier, so a pool that trained
    # them one after the other would break it after 10 s
    barrier = threading.Barrier(2, timeout=10)
    train_stack = shadow._train_stack

    def meeting(*args):
        barrier.wait()
        return train_stack(*args)

    fixed, pool, _, arch, cfg = tiny_setup(pool_n=8)
    configs = per_point_configs(cfg, len(pool))
    monkeypatch.setattr(shadow, "_train_stack", meeting)
    monkeypatch.setenv("RECONLAB_THREADS", "2")
    models = list(shadow.train_many(fixed, pool, arch, configs))
    assert_models_match_nn_train(models, fixed, pool, arch, configs)


def test_train_many_trains_each_stack_once_on_more_threads_than_cores(monkeypatch):
    # 24 stacks of one on 4 threads, switching often: a stack taken twice or
    # never shows in the count or as a missing model
    fixed, pool, _, arch, cfg = tiny_setup(pool_n=24)
    configs = [replace(cfg, epochs=1 + i % 3) for i in range(len(pool))]
    want = [nn.train(fixed.with_point(pool[i]), arch, c).flat for i, c in enumerate(configs)]
    calls = []
    train_stack = shadow._train_stack

    def counting(*args):
        calls.append(1)
        return train_stack(*args)

    monkeypatch.setattr(shadow, "_train_stack", counting)
    monkeypatch.setenv("RECONLAB_THREADS", "4")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            calls.clear()
            models = list(shadow.train_many(fixed, pool, arch, configs))
            assert len(calls) == len(configs)
            assert [m.flat.tobytes() for m in models] == [w.tobytes() for w in want]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2])
def test_train_many_passes_other_errors_through_and_starts_no_further_stack(workers,
                                                                           monkeypatch):
    # five stacks of one; with two threads, the first stack raises while the
    # second is in flight, and the second ends well after the raise
    error, raised, started = KeyError("lost"), threading.Event(), []
    barrier = threading.Barrier(workers, timeout=10)
    train_stack = shadow._train_stack

    def failing(slot, arch, stack_points, configs):
        started.append(configs[0].epochs)
        barrier.wait()
        if configs[0].epochs == 1:
            raised.set()
            raise error
        assert raised.wait(10)
        time.sleep(0.2)
        return train_stack(slot, arch, stack_points, configs)

    fixed, pool, _, arch, cfg = tiny_setup(pool_n=5)
    configs = [replace(cfg, epochs=e) for e in range(1, 6)]
    monkeypatch.setattr(shadow, "_train_stack", failing)
    monkeypatch.setenv("RECONLAB_THREADS", str(workers))
    with pytest.raises(KeyError) as e:
        list(shadow.train_many(fixed, pool, arch, configs))
    assert e.value is error
    assert sorted(started) == list(range(1, workers + 1))


@pytest.mark.parametrize("workers", [1, 2])
def test_train_many_over_no_points_yields_nothing(workers, monkeypatch):
    fixed, _, _, arch, _ = tiny_setup()
    monkeypatch.setenv("RECONLAB_THREADS", str(workers))
    assert list(shadow.train_many(fixed, [], arch, [])) == []


def check_divergence_inside_a_stack_names_the_first_point():
    # fixed rows at the origin, all of class 0: with this learning rate the
    # biases overflow at epoch 2 unless the point's label is 1, and a point
    # far from the origin overflows its weights sooner
    fixed = LabeledDataset(np.zeros((30, 4)), np.zeros(30, dtype=np.int64), 3)
    arch = nn.MlpArchitecture((4, 3))
    cfg = nn.TrainConfig(learning_rate=1e308, epochs=3)
    points = LabeledDataset(np.array([[0.0] * 4, [1.0] * 4, [0.0] * 4, [1.0] * 4, [100.0] * 4]),
                            np.array([1, 1, 0, 1, 0]), 3)
    serial = {}
    for i in (2, 4):
        with pytest.raises(nn.DivergenceError) as e:
            nn.train(fixed.with_point(points[i]), arch, cfg)
        serial[i] = str(e.value)
    # point 4 diverges two epochs before point 2, in the same stack
    assert serial == {2: "non-finite parameters at epoch 2",
                      4: "non-finite parameters at epoch 0"}
    configs = [cfg] * len(points)
    assert len(shadow._stacks(configs, shadow._depth(len(fixed) + 1, arch))) == 1
    models = shadow.train_many(fixed, points, arch, configs)
    for i in (0, 1):
        want = nn.train(fixed.with_point(points[i]), arch, cfg)
        assert next(models).flat.tobytes() == want.flat.tobytes()
    with pytest.raises(nn.DivergenceError) as e:
        next(models)
    assert str(e.value) == f"point 2 diverged: {serial[2]}"


@pytest.mark.filterwarnings("error")
def test_train_many_divergence_inside_a_stack_names_the_first_point(monkeypatch):
    monkeypatch.setenv("RECONLAB_THREADS", "1")
    check_divergence_inside_a_stack_names_the_first_point()


@pytest.mark.filterwarnings("error")
def test_train_many_divergence_inside_a_stack_names_the_first_point_on_threads(monkeypatch):
    # two threads, stacks of 3 and 2: point 4, in the second, diverges first
    monkeypatch.setenv("RECONLAB_THREADS", "2")
    check_divergence_inside_a_stack_names_the_first_point()


@pytest.mark.filterwarnings("error")
def test_threaded_divergence_keeps_the_warning_filters(monkeypatch):
    # nn.train's catch_warnings swaps the process-wide filter list; two
    # threads leaving it out of order would leave one's list behind, or let
    # numpy's overflow warning through as the error. Stack 0 (20 epochs)
    # mostly enters first and leaves first; in stack 1 (100 epochs), point
    # 7's huge features overflow at the first step.
    fixed, pool, _, arch, cfg = tiny_setup(pool_n=8)
    points = [pool[i] for i in range(7)] + [replace(pool[7], x=np.full(8, 1e200))]
    configs = [replace(cfg, epochs=20)] * 4 + [replace(cfg, epochs=100)] * 4
    want = [nn.train(fixed.with_point(points[i]), arch, configs[i]) for i in range(7)]
    monkeypatch.setenv("RECONLAB_THREADS", "2")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            filters = list(warnings.filters)
            models = shadow.train_many(fixed, points, arch, configs)
            for w in want:
                assert next(models).flat.tobytes() == w.flat.tobytes()
            with pytest.raises(nn.DivergenceError,
                               match="^point 7 diverged: non-finite loss at epoch 1$"):
                next(models)
            assert warnings.filters == filters
    finally:
        sys.setswitchinterval(interval)


def test_workers_env_variable(monkeypatch):
    monkeypatch.setenv("RECONLAB_THREADS", "3")
    assert shadow.default_workers() == 3
    monkeypatch.setenv("RECONLAB_THREADS", "1")
    assert shadow.default_workers() == 1
    monkeypatch.delenv("RECONLAB_THREADS")
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert shadow.default_workers() == cores


def test_workers_default_without_sched_getaffinity(monkeypatch):
    # as on macOS, where os has no sched_getaffinity
    monkeypatch.delenv("RECONLAB_THREADS", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert shadow.default_workers() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert shadow.default_workers() == 1


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5", ""])
def test_workers_env_variable_refuses_non_positive_integers(monkeypatch, value):
    monkeypatch.setenv("RECONLAB_THREADS", value)
    with pytest.raises(ValueError, match=f"RECONLAB_THREADS must be a positive integer, "
                                         f"got '{value}'"):
        shadow.default_workers()


# ------------------------------------------------------------ persistence

@pytest.mark.parametrize("mode", ["whitebox", "layers", "blackbox"])
def test_shadow_set_roundtrip(tmp_path, mode):
    fixed, pool, _, arch, cfg = tiny_setup(pool_n=10)
    if mode == "whitebox":
        feat = shadow.Featurizer("whitebox")
    elif mode == "layers":
        feat = shadow.Featurizer("layers", layers=(1,))
    else:
        feat = shadow.Featurizer("blackbox", probe=fixed.X[:5])
    s = shadow.gen_shadows(fixed, pool, arch, cfg, feat)
    prefix = str(tmp_path / "shadows")
    s.save(prefix)
    # loaded with another probe of the same size: the stored rows replace it
    other = shadow.Featurizer("blackbox", probe=pool.X[:5]) if mode == "blackbox" else feat
    back, _ = shadow.ShadowSet.load(prefix, other, arch)
    assert np.array_equal(back.features, s.features)
    assert np.array_equal(back.targets, s.targets)
    assert back.featurizer.mode == mode
    if mode == "blackbox":
        assert np.array_equal(back.featurizer.probe, feat.probe)
    # the stats are fitted to the features, not stored: the reconstructor of
    # the loaded set has the bits of the one trained in memory
    rc = shadow.RecoNNConfig(epochs=2, batch_size=4, seed=3)
    phi, back_phi = shadow.train_reconn(s, rc), shadow.train_reconn(back, rc)
    assert back_phi.params.flat.tobytes() == phi.params.flat.tobytes()
    assert back_phi.stats.mean.tobytes() == phi.stats.mean.tobytes()
    assert back_phi.stats.std.tobytes() == phi.stats.std.tobytes()


def test_shadow_set_metadata_follows_its_own_header_fields(tmp_path):
    fixed, pool, _, arch, cfg = tiny_setup(pool_n=10)
    s = shadow.gen_shadows(fixed, pool, arch, cfg, shadow.Featurizer("whitebox"))
    appended, written = str(tmp_path / "appended"), str(tmp_path / "written")
    s.save(appended)  # the header as save-then-append wrote it
    with open(appended + ".header", "a") as f:
        f.write(persist.format_header({"config_hash": "0123456789abcdef"}))
    s.save(written, {"config_hash": "0123456789abcdef"})
    for suffix in (".header", ".bin"):
        assert Path(written + suffix).read_bytes() == Path(appended + suffix).read_bytes()
    back, fields = shadow.ShadowSet.load(written, shadow.Featurizer("whitebox"), arch)
    assert fields["config_hash"] == "0123456789abcdef"
    assert np.array_equal(back.features, s.features)
    s.save(str(tmp_path / "bare"))
    _, bare = shadow.ShadowSet.load(str(tmp_path / "bare"), shadow.Featurizer("whitebox"), arch)
    assert "config_hash" not in bare


# ------------------------------------------------------------- reconn

def test_reconn_deterministic():
    fixed, pool, _, arch, cfg = tiny_setup(pool_n=40)
    s = shadow.gen_shadows(fixed, pool, arch, cfg, shadow.Featurizer("whitebox"))
    rc = shadow.RecoNNConfig(epochs=5, batch_size=16, seed=3)
    a = shadow.train_reconn(s, rc)
    b = shadow.train_reconn(s, rc)
    assert np.array_equal(a.params.flatten(), b.params.flatten())


@pytest.mark.parametrize("batch_size,lengths", [(20, [20]), (16, [16, 8])])
def test_train_reconn_makes_one_workspace_per_batch_length_before_its_first_step(
        batch_size, lengths, monkeypatch):
    fixed, pool, _, arch, cfg = tiny_setup(pool_n=40)
    s = shadow.gen_shadows(fixed, pool, arch, cfg, shadow.Featurizer("whitebox"))
    made, at_first_step = [], []

    class Counted(nn._Workspace):
        def __init__(self, arch, n, *args, **kwargs):
            made.append(n)
            super().__init__(arch, n, *args, **kwargs)

    reconn_loss_grad = shadow._reconn_loss_grad

    def step(*args):
        if not at_first_step:
            at_first_step.append(list(made))
        return reconn_loss_grad(*args)

    monkeypatch.setattr(nn, "_Workspace", Counted)
    monkeypatch.setattr(shadow, "_reconn_loss_grad", step)
    shadow.train_reconn(s, shadow.RecoNNConfig(epochs=2, batch_size=batch_size, seed=3))
    assert made == lengths and at_first_step == [lengths]


def test_reconn_loss_grad_matches_finite_differences():
    arch = nn.MlpArchitecture((6, 5, 4, 3), activation="relu")
    theta = nn.init_params(arch, 4).flatten()
    g = np.random.default_rng(9)
    F, T = g.normal(size=(8, 6)), g.uniform(size=(8, 3))

    def loss_grad(t):
        grad = nn.ModelParams(arch, np.empty_like(t))
        return shadow._reconn_loss_grad(nn.ModelParams(arch, t), F, T, grad), grad

    _, grad = loss_grad(theta)
    h = 1e-5
    num = np.array([(loss_grad(theta + h * e)[0] - loss_grad(theta - h * e)[0]) / (2 * h)
                    for e in np.eye(theta.size)])
    assert np.max(np.abs(grad.flatten() - num) / np.maximum(np.abs(num), 1e-6)) <= 1e-4


def test_reconn_batch_size_check():
    fixed, pool, _, arch, cfg = tiny_setup(pool_n=10)
    s = shadow.gen_shadows(fixed, pool, arch, cfg, shadow.Featurizer("whitebox"))
    with pytest.raises(ValueError):
        shadow.train_reconn(s, shadow.RecoNNConfig(batch_size=128))


def test_reconn_memorizes_training_pairs():
    fixed, pool, _, arch, cfg = tiny_setup(d=8, pool_n=60)
    s = shadow.gen_shadows(fixed, pool, arch, cfg, shadow.Featurizer("whitebox"))
    phi = shadow.train_reconn(s, shadow.RecoNNConfig(epochs=200, batch_size=32, seed=3))
    preds = phi.predict(phi.stats.apply(s.features))
    train_mse = float(np.mean((preds - s.targets) ** 2))
    pair_dists = [metrics.mse(s.targets[i], s.targets[j])
                  for i in range(0, 60, 6) for j in range(i + 1, 60, 7)]
    assert train_mse <= 0.1 * float(np.mean(pair_dists))


def test_attack_outputs_deterministic_and_bounded():
    fixed, pool, targets, arch, cfg = tiny_setup(pool_n=40)
    feat = shadow.Featurizer("whitebox")
    s = shadow.gen_shadows(fixed, pool, arch, cfg, feat)
    phi = shadow.train_reconn(s, shadow.RecoNNConfig(epochs=10, batch_size=16, seed=3))
    release = nn.train(fixed.with_point(targets[0]), arch, cfg)
    a = shadow.attack(phi, release)
    b = shadow.attack(phi, release)
    assert np.array_equal(a, b)
    assert np.array_equal(a, phi.predict(phi.stats.apply(shadow.featurize(release, feat))))
    assert a.shape == (fixed.dim,)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_attack_errors_match_the_per_target_loop():
    fixed, pool, targets, arch, cfg = tiny_setup(pool_n=40)
    s = shadow.gen_shadows(fixed, pool, arch, cfg, shadow.Featurizer("whitebox"))
    phi = shadow.train_reconn(s, shadow.RecoNNConfig(epochs=10, batch_size=16, seed=3))
    configs = [cfg] * len(targets)
    released = list(shadow.train_many(fixed, targets, arch, configs))
    loop = np.array([metrics.mse(targets.X[i], shadow.attack(phi, m))
                     for i, m in enumerate(released)])
    errors = shadow.attack_errors(phi, released, targets.X)
    assert errors.dtype == np.float64 and errors.tobytes() == loop.tobytes()
    lazy = shadow.train_many(fixed, targets, arch, configs)  # a generator, consumed once
    assert shadow.attack_errors(phi, lazy, targets.X).tobytes() == loop.tobytes()
    for short_released, short_targets in [(released[:-1], targets.X), (released, targets.X[1:])]:
        with pytest.raises(ValueError):
            shadow.attack_errors(phi, short_released, short_targets)


# --------------------------------------------------------- dp trade-off

def test_dp_tradeoff_one_row_per_sigma_in_order():
    fixed, pool, targets, arch, cfg = tiny_setup(pool_n=40)
    calls = []

    def run_config(sigma, rep):
        calls.append((sigma, rep))
        if sigma == 0.0:
            return cfg
        return replace(cfg, optimizer="dpgd", clip_norm=1.0, noise_multiplier=sigma)

    def released_noise_seed(sigma, rep, i):
        calls.append((sigma, rep, i))
        return 100 + i

    rc = shadow.RecoNNConfig(epochs=5, batch_size=16, seed=3)
    rows = shadow.dp_tradeoff(fixed, pool, targets, arch, [0.0, 2.0, 0.0], 1, run_config,
                              released_noise_seed, rc)
    assert len(rows) == 3 and rows[0] == rows[2] and rows[0] != rows[1]
    assert [se for _, se, _ in rows] == [0.0, 0.0, 0.0]
    assert calls == [c for s in (0.0, 2.0, 0.0)
                     for c in [(s, 0)] + [(s, 0, i) for i in range(len(targets))]]
    # the released models share every seed but the DP noise with the shadows
    phi = shadow.train_reconn(shadow.gen_shadows(fixed, pool, arch, run_config(2.0, 0),
                                                 shadow.Featurizer()), rc)
    released = [nn.train(fixed.with_point(targets[i]), arch,
                         replace(run_config(2.0, 0), noise_seed=100 + i))
                for i in range(len(targets))]
    mse = np.mean(shadow.attack_errors(phi, released, targets.X))
    assert rows[1] == (mse, 0.0, np.mean([nn.accuracy(m, targets) for m in released]))
    with pytest.raises(ValueError, match="repeats"):
        shadow.dp_tradeoff(fixed, pool, targets, arch, [0.0], 0, run_config,
                           released_noise_seed, rc)


def test_dp_tradeoff_trains_each_repeat_in_one_train_many_call(monkeypatch):
    # shadows and released models of a (sigma, rep) share one call, and so
    # one worker pool; the row is the one separate calls give
    fixed, pool, targets, arch, cfg = tiny_setup(pool_n=40)
    calls = []
    train_many = shadow.train_many

    def counting(fixed, points, arch, configs, names=None):
        calls.append(len(configs))
        return train_many(fixed, points, arch, configs, names)

    def run_config(sigma, rep):
        return replace(cfg, optimizer="dpgd", clip_norm=1.0, noise_multiplier=sigma,
                       init_seed=20 + rep)

    rc = shadow.RecoNNConfig(epochs=5, batch_size=16, seed=3)
    monkeypatch.setattr(shadow, "train_many", counting)
    rows = shadow.dp_tradeoff(fixed, pool, targets, arch, [0.5, 2.0], 2, run_config,
                              lambda sigma, rep, i: 100 + i, rc)
    assert calls == [len(pool) + len(targets)] * 4
    monkeypatch.setattr(shadow, "train_many", train_many)
    mses = []
    for rep in range(2):
        config = run_config(2.0, rep)
        phi = shadow.train_reconn(shadow.gen_shadows(fixed, pool, arch, config,
                                                     shadow.Featurizer()), rc)
        released = list(shadow.train_many(
            fixed, targets, arch,
            [replace(config, noise_seed=100 + i) for i in range(len(targets))]))
        mses.append(float(np.mean(shadow.attack_errors(phi, released, targets.X))))
    assert rows[1][0] == np.mean(mses)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("diverging,named", [("shadow", "shadow 0 diverged"),
                                             ("target", "target 1 diverged")])
def test_dp_tradeoff_divergence_names_the_shadow_or_target(monkeypatch, workers,
                                                           diverging, named):
    fixed, pool, targets, arch, cfg = tiny_setup(pool_n=20)
    if diverging == "shadow":
        cfg = replace(cfg, learning_rate=1e300)
    else:  # a finite target whose first layer overflows
        X = targets.X.copy()
        X[1] = 1.7e308
        targets = LabeledDataset(X, targets.y, targets.num_classes)
    monkeypatch.setenv("RECONLAB_THREADS", str(workers))
    with pytest.raises(nn.DivergenceError, match=named):
        shadow.dp_tradeoff(fixed, pool, targets, arch, [0.0], 1, lambda sigma, rep: cfg,
                           lambda sigma, rep, i: i, shadow.RecoNNConfig(batch_size=8))
