"""Reconstruction-error metrics and the nearest-neighbor oracle baseline.

The oracle guesses the closest point to the target among everything the
adversary already holds; an attack only extracts new information when it
beats that distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "mse",
    "OracleReport",
    "oracle_report",
    "judge_success",
]


def mse(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def _pool_matrix(pool) -> np.ndarray:
    pool = np.asarray(pool, dtype=np.float64)
    if pool.ndim != 2 or pool.shape[0] == 0:
        raise ValueError("pool must be a nonempty (m, d) array")
    return pool


@dataclass
class OracleReport:
    nn_distances: np.ndarray      # per-target nearest-neighbor MSE
    mean_nn_distance: float
    percentiles: dict             # {1: ..., 10: ..., 50: ...} of pooled all-pairs MSE


def oracle_report(targets, pool) -> OracleReport:
    """Per-target NN distances plus percentiles of the pooled target-to-pool MSEs."""
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    pool = _pool_matrix(pool)
    # (t, m) matrix of MSEs via the expanded quadratic form.
    tn = (targets ** 2).mean(axis=1)[:, None]
    pn = (pool ** 2).mean(axis=1)[None, :]
    cross = targets @ pool.T / targets.shape[1]
    dists = np.maximum(tn + pn - 2 * cross, 0.0)
    nn_d = dists.min(axis=1)
    flat = dists.ravel()
    percentiles = {p: float(np.percentile(flat, p)) for p in (1, 10, 50)}
    return OracleReport(
        nn_distances=nn_d,
        mean_nn_distance=float(nn_d.mean()),
        percentiles=percentiles,
    )


def judge_success(attack_mse: float, oracle_threshold: float) -> bool:
    """Strictly below the oracle threshold counts as a successful reconstruction."""
    return attack_mse < oracle_threshold
