"""Privacy accounting for full-batch DP-GD.

zCDP is the internal currency: the Gaussian mechanism composes additively
in rho, and the reconstruction-robustness calculus consumes rho directly.
The (epsilon, delta) view is derived from it.
"""

from __future__ import annotations

import math

__all__ = [
    "account_dpgd",
    "zcdp_to_approx_dp",
    "calibrate_noise",
    "gaussian_mechanism_zcdp",
]

CALIBRATE_REL_TOL = 1e-9  # calibrate_noise bisects until (hi - lo) / hi is at most this


def gaussian_mechanism_zcdp(sensitivity: float, noise_std: float) -> float:
    """rho of a Gaussian mechanism with the given l2 sensitivity and noise std."""
    if not noise_std > 0:
        raise ValueError("noise_std must be positive (rho would be infinite)")
    variance = noise_std ** 2
    if variance == 0.0:
        raise ValueError(f"noise_std {noise_std!r} squares to 0 (rho would be infinite)")
    return sensitivity ** 2 / (2.0 * variance)


def account_dpgd(steps: int, clip_norm: float, noise_multiplier: float) -> float:
    """Total rho-zCDP of T steps of clipped-sum + Gaussian noise N(0, (sigma*C)^2 I).

    Under replace adjacency (datasets of equal size differing in one record)
    the per-step sensitivity is 2C.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not clip_norm > 0:
        raise ValueError("clip_norm must be positive")
    if not noise_multiplier > 0:
        raise ValueError("noise_multiplier must be positive (rho would be infinite)")
    return steps * gaussian_mechanism_zcdp(2.0 * clip_norm, noise_multiplier * clip_norm)


def zcdp_to_approx_dp(rho: float, delta: float) -> float:
    """Standard conversion: epsilon = rho + 2*sqrt(rho*ln(1/delta))."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if not rho >= 0:
        raise ValueError("rho must be nonnegative")
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def calibrate_noise(target_epsilon: float, delta: float, steps: int, clip_norm: float) -> float:
    """Smallest noise multiplier whose accounted epsilon is <= the target (bisection)."""
    if not target_epsilon > 0:
        raise ValueError("target epsilon must be positive")

    def eps_of(sigma: float) -> float:
        return zcdp_to_approx_dp(account_dpgd(steps, clip_norm, sigma), delta)

    lo, hi = 1e-6, 1.0
    while eps_of(hi) > target_epsilon:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("target epsilon unreachable")
    if eps_of(lo) <= target_epsilon:
        return lo
    while (hi - lo) / hi > CALIBRATE_REL_TOL:
        mid = 0.5 * (lo + hi)
        if eps_of(mid) <= target_epsilon:
            hi = mid
        else:
            lo = mid
    return hi
