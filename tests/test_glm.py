import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reconlab import glm
from reconlab.rng import _derive


def plant_instance(family, lam, d, n, seed, intercept=True):
    """Random fixed set plus one planted target; returns (X_full, Y_full, x, y)."""
    g = np.random.default_rng(seed)
    X = g.normal(size=(n, d))
    if intercept:
        X = np.hstack([np.ones((n, 1)), X])
    if family == "logistic":
        Y = g.integers(0, 2, size=n).astype(float)
    else:
        Y = g.normal(size=n)
    return X, Y


def fit_glm_gd(X, Y, spec, tol=glm.DEFAULT_TOL):
    """Plain gradient descent with step 1/L to fit_glm's tolerance: the
    reference for the attack depending only on optimality, not on the
    training algorithm."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if spec.intercept:
        X = glm.add_intercept(X)
    smax = np.linalg.norm(X, 2) ** 2
    learning_rate = 1.0 / ((smax if spec.family == "linear" else 0.25 * smax) + spec.lam)
    theta = np.zeros(X.shape[1])
    for _ in range(2_000_000):
        g = glm.glm_gradient(theta, X, Y, spec)
        if np.linalg.norm(g) <= tol:
            return theta
        theta = theta - learning_rate * g
    raise AssertionError("gradient descent did not converge")


# -------------------------------------------------------------- fitting

def test_fit_linear_matches_normal_equations():
    g = np.random.default_rng(0)
    X = g.normal(size=(30, 4))
    Y = g.normal(size=30)
    spec = glm.GlmSpec("linear", 1.0, intercept=False)
    theta = glm.fit_glm(X, Y, spec)
    ref = np.linalg.solve(X.T @ X + np.eye(4), X.T @ Y)
    assert np.max(np.abs(theta - ref)) < 1e-10


def test_fit_zero_labels_with_ridge_gives_zero():
    g = np.random.default_rng(1)
    X = g.normal(size=(20, 3))
    theta = glm.fit_glm(X, np.zeros(20), glm.GlmSpec("linear", 0.5, intercept=False))
    assert np.max(np.abs(theta)) < 1e-10


def test_fit_logistic_separable_with_ridge():
    g = np.random.default_rng(2)
    X = np.vstack([g.normal(size=(20, 3)) + 3, g.normal(size=(20, 3)) - 3])
    Y = np.concatenate([np.ones(20), np.zeros(20)])
    spec = glm.GlmSpec("logistic", 0.1, intercept=False)
    theta = glm.fit_glm(X, Y, spec)
    assert np.isfinite(theta).all()
    assert np.linalg.norm(glm.glm_gradient(theta, X, Y, spec)) <= glm.DEFAULT_TOL


def test_ridge_family_alias():
    assert glm.GlmSpec("ridge", 0.3).family == "linear"
    with pytest.raises(ValueError):
        glm.GlmSpec("poisson")
    for lam in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
            glm.GlmSpec("linear", lam)


def test_newton_and_gd_reach_same_optimum():
    g = np.random.default_rng(3)
    X = g.normal(size=(40, 3))
    Y = g.integers(0, 2, size=40).astype(float)
    spec = glm.GlmSpec("logistic", 0.1, intercept=False)
    a = glm.fit_glm(X, Y, spec, tol=1e-10)
    b = fit_glm_gd(X, Y, spec, tol=1e-10)
    assert np.max(np.abs(a - b)) < 1e-7


# ------------------------------------------------------- full-rank attack

@pytest.mark.parametrize("family,lam", [
    ("linear", 0.0), ("linear", 0.1), ("linear", 1.0),
    ("logistic", 0.0), ("logistic", 0.1),
])
def test_reconstruct_recovers_planted_point(family, lam):
    g = np.random.default_rng(_derive(0, (family, lam)) % 2 ** 32)
    for trial in range(10):
        d = int(g.integers(2, 12))
        # logistic instances stay far from separability: near-separable fits
        # drive the unknown point's residual toward zero, which makes exact
        # recovery ill-conditioned by construction
        n = int(g.integers(8 * d, 100)) if family == "logistic" else \
            int(g.integers(d + 5, 100))
        X, Y = plant_instance(family, lam, d, n, seed=int(g.integers(2 ** 31)))
        x_true = np.concatenate([[1.0], g.normal(size=d)])
        y_true = float(g.integers(0, 2)) if family == "logistic" else float(g.normal())
        Xf = np.vstack([X, x_true[None, :]])
        Yf = np.concatenate([Y, [y_true]])
        spec = glm.GlmSpec(family, lam)
        try:
            theta = glm.fit_glm(Xf, Yf, spec)
        except glm.GlmError:
            continue  # rare separable instance at lam=0
        x_hat, y_hat = glm.reconstruct_glm(theta, X, Y, spec)
        assert np.max(np.abs(x_hat - x_true)) <= 1e-6
        assert abs(y_hat - y_true) <= 1e-6


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(["linear", "ridge", "logistic"]), d=st.integers(1, 20),
       extra=st.integers(0, 200), lam=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_fit_then_reconstruct_round_trip(family, d, extra, lam, seed):
    # n fixed points and one planted point. Linear draws have n >= d + 10 and
    # logistic ones n >= 8d as A1 has them, plus 16: at n = 8d about 3% of
    # d = 1 draws are nearly separable, where Newton meets fit_glm's gradient
    # tolerance with a diverging theta and the planted point's residual, which
    # the attack divides by, vanishes
    if family == "linear":
        lam = 0.0
    logistic = family == "logistic"
    n = (8 * d + 16 if logistic else d + 10) + extra
    g = np.random.default_rng(seed)
    X = np.hstack([np.ones((n + 1, 1)), g.normal(size=(n + 1, d))])
    Y = g.integers(0, 2, size=n + 1).astype(float) if logistic else g.normal(size=n + 1)
    spec = glm.GlmSpec(family, lam)
    try:
        theta = glm.fit_glm(X, Y, spec)
    except glm.GlmError:
        assume(False)
    x_hat, y_hat = glm.reconstruct_glm(theta, X[:-1], Y[:-1], spec)
    assert np.max(np.abs(x_hat - X[-1])) <= 1e-6
    assert abs(y_hat - Y[-1]) <= 1e-6


# intercept plus one feature; the last row, x1 = 3 with label 1, is the
# target. A threshold between x1 = -1 and 1 separates the labels.
SEPARABLE_X = np.array([[1.0, -2.0], [1.0, -1.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
SEPARABLE_Y = np.array([0.0, 0.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("lam", [0.0, 1e-8, 1e-6, 1e-4])
def test_reconstruct_refuses_a_point_the_fit_cannot_pin(lam):
    # theta is optimal only up to a gradient of norm tol; with the target's
    # residual near 1e-11 that moves x1 to 7.0, 1.19, 1.09 or -18.2 (true 3),
    # and the back-substitution check holds for the wrong point anyway
    spec = glm.GlmSpec("logistic", lam)
    with pytest.raises(glm.GlmError, match="near-zero denominator"):
        theta = glm.fit_glm(SEPARABLE_X, SEPARABLE_Y, spec)
        glm.reconstruct_glm(theta, SEPARABLE_X[:-1], SEPARABLE_Y[:-1], spec)


def test_reconstruct_with_enough_ridge_recovers_separable_point():
    spec = glm.GlmSpec("logistic", 1e-2)
    theta = glm.fit_glm(SEPARABLE_X, SEPARABLE_Y, spec)
    x, y = glm.reconstruct_glm(theta, SEPARABLE_X[:-1], SEPARABLE_Y[:-1], spec)
    assert np.max(np.abs(x - SEPARABLE_X[-1])) <= 1e-6
    assert abs(y - 1.0) <= 1e-6


def test_reconstruct_refuses_nan_theta():
    spec = glm.GlmSpec("logistic", 0.1)
    theta = glm.fit_glm(SEPARABLE_X, SEPARABLE_Y, spec)
    theta[1] = np.nan
    with pytest.raises(glm.GlmError):
        glm.reconstruct_glm(theta, SEPARABLE_X[:-1], SEPARABLE_Y[:-1], spec)


def test_reconstruct_requires_intercept_column():
    g = np.random.default_rng(5)
    with pytest.raises(glm.GlmError):
        glm.reconstruct_glm(g.normal(size=3), g.normal(size=(10, 3)),
                            g.normal(size=10), glm.GlmSpec("linear"))


def test_attack_is_training_algorithm_independent():
    g = np.random.default_rng(6)
    d, n = 5, 60
    X, Y = plant_instance("logistic", 0.1, d, n, seed=7)
    x_true = np.concatenate([[1.0], g.normal(size=d)])
    y_true = 1.0
    Xf = np.vstack([X, x_true[None, :]])
    Yf = np.concatenate([Y, [y_true]])
    spec = glm.GlmSpec("logistic", 0.1)
    t_newton = glm.fit_glm(Xf, Yf, spec)
    t_gd = fit_glm_gd(Xf, Yf, spec)
    xa, ya = glm.reconstruct_glm(t_newton, X, Y, spec)
    xb, yb = glm.reconstruct_glm(t_gd, X, Y, spec)
    assert np.max(np.abs(xa - xb)) < 1e-5
    assert abs(ya - yb) < 1e-5


# --------------------------------------------------- no-intercept variant

def test_no_intercept_attack_recovers_planted_features():
    g = np.random.default_rng(8)
    hits = 0
    for trial in range(20):
        d = int(g.integers(2, 8))
        n = int(g.integers(d + 5, 50))
        X = g.normal(size=(n, d))
        Y = g.normal(size=n)
        x_true = g.normal(size=d)
        y_true = float(g.normal())
        Xf = np.vstack([X, x_true[None, :]])
        Yf = np.concatenate([Y, [y_true]])
        theta = glm.fit_glm(Xf, Yf, glm.GlmSpec("linear", 0.0, intercept=False))
        c1, c2 = glm.reconstruct_linreg_no_intercept(theta, X, Y, y_true)
        err = min(np.max(np.abs(c1 - x_true)), np.max(np.abs(c2 - x_true)))
        if err <= 1e-6:
            hits += 1
    assert hits == 20


def test_no_intercept_candidates_rescale_with_features():
    g = np.random.default_rng(9)
    d, n = 4, 30
    X = g.normal(size=(n, d))
    Y = g.normal(size=n)
    x_true = g.normal(size=d)
    y_true = 1.3
    Xf = np.vstack([X, x_true[None, :]])
    Yf = np.concatenate([Y, [y_true]])
    theta = glm.fit_glm(Xf, Yf, glm.GlmSpec("linear", 0.0, intercept=False))
    c1, c2 = glm.reconstruct_linreg_no_intercept(theta, X, Y, y_true)

    # rescaling features by s rescales theta by 1/s and the candidates by s
    s = 2.0
    theta_s = glm.fit_glm(Xf * s, Yf, glm.GlmSpec("linear", 0.0, intercept=False))
    d1, d2 = glm.reconstruct_linreg_no_intercept(theta_s, X * s, Y, y_true)
    assert np.max(np.abs(d1 - s * c1)) < 1e-6
    assert np.max(np.abs(d2 - s * c2)) < 1e-6


def test_no_intercept_degenerate_residual_raises():
    # fixed set fit exactly by theta: residual vanishes, attack is impossible
    g = np.random.default_rng(10)
    X = g.normal(size=(5, 5))
    theta = g.normal(size=5)
    Y = X @ theta
    with pytest.raises(glm.GlmError):
        glm.reconstruct_linreg_no_intercept(theta, X, Y, 1.0)
