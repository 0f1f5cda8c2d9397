"""Exact closed-form reconstruction attacks on generalized linear models.

A GLM trained to optimality pins the unknown training point through the
first-order optimality condition: the target's gradient contribution equals
minus the (known) contribution of the rest of the data. With an intercept
column this system solves in closed form for both features and label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GlmSpec",
    "GlmError",
    "add_intercept",
    "glm_gradient",
    "fit_glm",
    "reconstruct_glm",
    "reconstruct_linreg_no_intercept",
]

DEFAULT_TOL = 1e-10
NEWTON_MAX_ITER = 100
DENOM_EPS = 1e-12


class GlmError(RuntimeError):
    pass


def _sigmoid(u):
    return 0.5 * (1.0 + np.tanh(0.5 * u))


@dataclass(frozen=True)
class GlmSpec:
    """family in {linear, logistic}; lam >= 0; ridge = linear with lam > 0."""

    family: str = "linear"
    lam: float = 0.0
    intercept: bool = True

    def __post_init__(self):
        fam = self.family.lower()
        if fam == "ridge":
            fam = "linear"
        if fam not in ("linear", "logistic"):
            raise ValueError(f"unknown GLM family {self.family!r}")
        object.__setattr__(self, "family", fam)
        if not 0.0 <= self.lam < float("inf"):
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam!r}")

    def inverse_link(self, u):
        """b' = g^{-1}: identity for linear, sigmoid for logistic."""
        return u if self.family == "linear" else _sigmoid(u)


def add_intercept(X: np.ndarray) -> np.ndarray:
    """Prepend a ones column unless the first column is already all ones."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] and np.all(X[:, 0] == 1.0):
        return X
    return np.hstack([np.ones((X.shape[0], 1)), X])


def glm_gradient(theta: np.ndarray, X: np.ndarray, Y: np.ndarray, spec: GlmSpec) -> np.ndarray:
    """Gradient of C(theta) = sum_i (b(<x_i,theta>) - <x_i,theta> y_i) + (lam/2)|theta|^2."""
    u = X @ theta
    return X.T @ (spec.inverse_link(u) - Y) + spec.lam * theta


def fit_glm(X: np.ndarray, Y: np.ndarray, spec: GlmSpec, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Fit to gradient norm <= tol: normal equations for linear, Newton for logistic."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.asarray(Y, dtype=np.float64)
    if spec.intercept:
        X = add_intercept(X)
    d = X.shape[1]

    if spec.family == "linear":
        A = X.T @ X + spec.lam * np.eye(d)
        try:
            theta = np.linalg.solve(A, X.T @ Y)
        except np.linalg.LinAlgError as e:
            raise GlmError(f"singular system: {e}") from None
        # One iterative-refinement step to push the residual to fit tolerance.
        theta -= np.linalg.solve(A, glm_gradient(theta, X, Y, spec))
        g = glm_gradient(theta, X, Y, spec)
    else:
        # glm_gradient's terms, with the sigmoid shared by the Hessian weights
        theta = np.zeros(d)
        ridge = spec.lam * np.eye(d)
        for _ in range(NEWTON_MAX_ITER):
            s = _sigmoid(X @ theta)
            g = X.T @ (s - Y) + spec.lam * theta
            if np.linalg.norm(g) <= tol:
                break
            H = X.T @ ((s * (1.0 - s))[:, None] * X) + ridge
            try:
                step = np.linalg.solve(H, g)
            except np.linalg.LinAlgError as e:
                raise GlmError(f"singular Hessian: {e}") from None
            theta = theta - step
        else:
            g = glm_gradient(theta, X, Y, spec)

    if not np.isfinite(theta).all() or not np.linalg.norm(g) <= tol:
        raise GlmError(
            f"did not reach fit tolerance: |grad| = {np.linalg.norm(g):.3e} > {tol:.1e}"
        )
    return theta


def reconstruct_glm(theta: np.ndarray, X_fixed: np.ndarray, Y_fixed: np.ndarray,
                    spec: GlmSpec, tol: float = DEFAULT_TOL):
    """Closed-form recovery of the held-out (x, y) from an exactly optimal GLM.

    Requires the intercept convention (first feature coordinate equals 1).
    With B = g^{-1}(X theta) - Y over the fixed set, the optimality condition
    gives x = num / denom with num = X'B + lam*theta and denom = sum(B) +
    lam*theta_1, and its intercept row gives the label y = g^{-1}(<x, theta>)
    + denom. The check is the gradient at theta over the fixed set plus
    (x, y), num + x * (g^{-1}(<x, theta>) - y), formed from those same sums:
    GlmError unless its norm is at most 10*tol.

    That check holds by construction, up to rounding, so it catches only a
    reconstruction that is not finite (a numerator or link that overflows)
    and cannot see the fit's own error: theta is only optimal up to a
    gradient of norm tol, which x carries divided by denom. GlmError unless
    |denom| >= 100*tol, which bounds that error by about 1e-2.
    """
    theta = np.asarray(theta, dtype=np.float64)
    X_fixed = np.atleast_2d(np.asarray(X_fixed, dtype=np.float64))
    Y_fixed = np.asarray(Y_fixed, dtype=np.float64)
    if not np.all(X_fixed[:, 0] == 1.0):
        raise GlmError("reconstruct_glm requires an intercept column of ones")

    B = spec.inverse_link(X_fixed @ theta) - Y_fixed
    denom = float(B.sum() + spec.lam * theta[0])  # X_1' B + lam * theta_1
    if not abs(denom) >= max(100 * tol, DENOM_EPS):
        raise GlmError(f"near-zero denominator {denom:.3e}: a fit to gradient norm "
                       f"{tol:.1e} does not pin the point")

    num = X_fixed.T @ B + spec.lam * theta
    x = num / denom
    x[0] = 1.0
    link = float(spec.inverse_link(x @ theta))
    y = link + denom

    # the gradient at theta over the fixed set plus (x, y)
    gnorm = np.linalg.norm(num + x * (link - y))
    if not gnorm <= 10 * tol:
        raise GlmError(f"reconstruction fails the optimality check: |grad| = {gnorm:.3e}")
    return x, y


def reconstruct_linreg_no_intercept(theta: np.ndarray, X_fixed: np.ndarray,
                                    Y_fixed: np.ndarray, y: float):
    """Quadratic-root attack on intercept-free least squares given the known label.

    Returns both candidate feature vectors; at least one reproduces the target
    when the model was trained to exact optimality. GlmError unless both are
    finite.
    """
    theta = np.asarray(theta, dtype=np.float64)
    X_fixed = np.atleast_2d(np.asarray(X_fixed, dtype=np.float64))
    Y_fixed = np.asarray(Y_fixed, dtype=np.float64)

    r = X_fixed @ theta - Y_fixed
    if np.linalg.norm(r) < DENOM_EPS:
        raise GlmError("degenerate case: fixed-set residual is zero")
    v = X_fixed.T @ r
    c = float(r @ (X_fixed @ theta))
    disc = y * y - 4.0 * c
    if disc < 0:
        raise GlmError(f"negative discriminant {disc:.3e}")
    if abs(c) < DENOM_EPS:
        # Quadratic degenerates to -alpha*y + 1 = 0.
        if abs(y) < DENOM_EPS:
            raise GlmError("degenerate case: both quadratic coefficients vanish")
        a1 = a2 = 1.0 / y
    else:
        root = np.sqrt(disc)
        a1, a2 = (y + root) / (2.0 * c), (y - root) / (2.0 * c)
    c1, c2 = v * a1, v * a2
    # an overflowing X'r or c makes the roots inf or NaN
    if not (np.isfinite(c1).all() and np.isfinite(c2).all()):
        raise GlmError("the candidates are not finite: the fixed set or theta overflows")
    return c1, c2
