import numpy as np
import pytest

from reconlab import metrics, nn


def test_mse_basics():
    z = np.random.default_rng(0).uniform(size=10)
    assert metrics.mse(z, z) == 0.0
    assert metrics.mse(np.zeros(7), np.ones(7)) == 1.0
    with pytest.raises(ValueError):
        metrics.mse(np.zeros(3), np.zeros(4))


def test_nn_oracle_exact_member():
    pool = np.random.default_rng(1).uniform(size=(20, 6))
    idx, dist = metrics.nn_oracle(pool[7], pool)
    assert idx == 7 and dist == 0.0


def test_nn_oracle_single_element_pool():
    pool = np.array([[0.1, 0.9]])
    idx, dist = metrics.nn_oracle(np.array([0.5, 0.5]), pool)
    assert idx == 0
    assert abs(dist - metrics.mse(np.array([0.5, 0.5]), pool[0])) < 1e-15


def test_nn_oracle_matches_brute_force():
    g = np.random.default_rng(2)
    pool = g.uniform(size=(50, 8))
    for _ in range(20):
        t = g.uniform(size=8)
        idx, dist = metrics.nn_oracle(t, pool)
        brute = [metrics.mse(t, p) for p in pool]
        assert idx == int(np.argmin(brute))
        assert abs(dist - min(brute)) < 1e-12


def test_nn_oracle_is_lower_bound():
    g = np.random.default_rng(3)
    pool = g.uniform(size=(30, 5))
    t = g.uniform(size=5)
    _, dist = metrics.nn_oracle(t, pool)
    assert all(dist <= metrics.mse(t, p) + 1e-15 for p in pool)


def test_report_identical_targets_zero_distance():
    pool = np.random.default_rng(4).uniform(size=(10, 4))
    rep = metrics.oracle_report(pool, pool)
    assert np.allclose(rep.nn_distances, 0.0, atol=1e-12)


def test_report_two_point_pool():
    pool = np.vstack([np.zeros(8), np.ones(8)])
    rep = metrics.oracle_report(np.full((1, 8), 0.5), pool)
    assert abs(rep.nn_distances[0] - 0.25) < 1e-12


def test_report_percentiles_monotone():
    g = np.random.default_rng(5)
    rep = metrics.oracle_report(g.uniform(size=(20, 6)), g.uniform(size=(100, 6)))
    p = rep.percentiles
    assert p[1] <= p[10] <= p[50]


def test_report_nn_matches_brute_force():
    g = np.random.default_rng(6)
    targets = g.uniform(size=(15, 7))
    pool = g.uniform(size=(40, 7))
    rep = metrics.oracle_report(targets, pool)
    for i, t in enumerate(targets):
        _, dist = metrics.nn_oracle(t, pool)
        assert abs(rep.nn_distances[i] - dist) < 1e-12


def test_kl_probe_zero_on_identity_and_nonnegative():
    arch = nn.MlpArchitecture((6, 5, 3))
    probe = nn.init_params(arch, 1)
    g = np.random.default_rng(7)
    z = g.uniform(size=6)
    assert metrics.kl_probe(probe, z, z) == 0.0
    for _ in range(20):
        a, b = g.uniform(size=6), g.uniform(size=6)
        assert metrics.kl_probe(probe, a, b) >= -1e-12


def test_judge_success_strict():
    assert metrics.judge_success(0.01, 0.02)
    assert not metrics.judge_success(0.02, 0.02)
    assert not metrics.judge_success(0.03, 0.02)
