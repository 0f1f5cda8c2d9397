from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from reconlab import metrics, nn, persist, shadow
from reconlab.data import SplitSpec, synth_classification, split


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
    normed = a.stats.apply(a.features)
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


def test_workers_env_variable(monkeypatch):
    monkeypatch.setenv("RECONLAB_THREADS", "3")
    assert shadow.default_workers() == 3
    monkeypatch.delenv("RECONLAB_THREADS")
    assert shadow.default_workers() == 1


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
    back, _ = shadow.ShadowSet.load(prefix)
    assert np.array_equal(back.features, s.features)
    assert np.array_equal(back.targets, s.targets)
    assert back.featurizer.mode == mode
    assert np.allclose(back.stats.mean, s.stats.mean)
    assert np.allclose(back.stats.std, s.stats.std)
    if mode == "blackbox":
        assert np.array_equal(back.featurizer.probe, feat.probe)


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
    back, fields = shadow.ShadowSet.load(written)
    assert fields["config_hash"] == "0123456789abcdef"
    assert np.array_equal(back.features, s.features)
    s.save(str(tmp_path / "bare"))
    _, bare = shadow.ShadowSet.load(str(tmp_path / "bare"))
    assert "config_hash" not in bare


# ------------------------------------------------------------- reconn

def test_reconn_deterministic():
    fixed, pool, _, arch, cfg = tiny_setup(pool_n=40)
    s = shadow.gen_shadows(fixed, pool, arch, cfg, shadow.Featurizer("whitebox"))
    rc = shadow.RecoNNConfig(epochs=5, batch_size=16, seed=3)
    a = shadow.train_reconn(s, rc)
    b = shadow.train_reconn(s, rc)
    assert np.array_equal(a.params.flatten(), b.params.flatten())


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
    preds = phi.predict(s.stats.apply(s.features))
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
    b = phi(release)
    assert np.array_equal(a, b)
    assert np.array_equal(a, phi.predict(s.stats.apply(shadow.featurize(release, feat))))
    assert a.shape == (fixed.dim,)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_attack_errors_match_the_per_target_loop():
    fixed, pool, targets, arch, cfg = tiny_setup(pool_n=40)
    s = shadow.gen_shadows(fixed, pool, arch, cfg, shadow.Featurizer("whitebox"))
    phi = shadow.train_reconn(s, shadow.RecoNNConfig(epochs=10, batch_size=16, seed=3))
    configs = [cfg] * len(targets)
    released = list(shadow.train_many(fixed, targets, arch, configs))
    loop = np.array([metrics.mse(targets.X[i], phi(m)) for i, m in enumerate(released)])
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
