import numpy as np
import pytest

from reconlab import metrics


def test_mse_basics():
    z = np.random.default_rng(0).uniform(size=10)
    assert metrics.mse(z, z) == 0.0
    assert metrics.mse(np.zeros(7), np.ones(7)) == 1.0
    with pytest.raises(ValueError):
        metrics.mse(np.zeros(3), np.zeros(4))


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
        assert abs(rep.nn_distances[i] - min(metrics.mse(t, p) for p in pool)) < 1e-12


def test_judge_success_strict():
    assert metrics.judge_success(0.01, 0.02)
    assert not metrics.judge_success(0.02, 0.02)
    assert not metrics.judge_success(0.03, 0.02)
