"""Metric arithmetic: timing percentiles, failure accounting, output comparison.

Kept apart from the workloads so the rules can be tested on synthetic inputs.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

# Tail percentiles in increasing order; a timing reports the highest one
# that has at least MIN_BEYOND samples beyond it.
TAIL_PERCENTILES = (90.0, 99.0, 99.9)
MIN_BEYOND = 10

# Build-independent comparison tolerance for recorded outputs.
REL_TOL = 1e-10


def rank(n: int, p: float) -> int:
    """1-based nearest-rank index of the p-th percentile of n samples. The
    rounding keeps e.g. 99.9% of 10000 at 9990 despite binary floats."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def beyond(n: int, p: float) -> int:
    """How many of n samples lie beyond the nearest-rank p-th percentile."""
    return n - rank(n, p)


def timing_summary(values) -> dict:
    """Median, sample count and every tail percentile backed by enough samples.

    Keys are "n", "p50" and e.g. "p90"/"p99"; a percentile with fewer than
    MIN_BEYOND samples beyond it is omitted. "tail" names the highest one
    present, or is None.
    """
    xs = sorted(values)
    out = {"n": len(xs), "tail": None}
    if not xs:
        return out
    out["p50"] = statistics.median(xs)
    for p in TAIL_PERCENTILES:
        if beyond(len(xs), p) >= MIN_BEYOND:
            key = "p" + format(p, "g")
            out[key] = xs[rank(len(xs), p) - 1]
            out["tail"] = key
    return out


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


# ------------------------------------------------------- output comparison

def sketch(values) -> dict:
    """A few weighted sums that agree to REL_TOL * scale whenever the inputs
    agree elementwise to REL_TOL relative, so recorded outputs can be checked
    on another numpy/BLAS build without storing them.

    Weights lie in [0.5, 1] and follow a fixed formula, not a random stream,
    so the sketch does not depend on the numpy version.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    j = np.arange(1, x.size + 1, dtype=np.float64)
    sums = [float(np.sum((0.5 + 0.5 * (j * phi % 1.0)) * x))
            for phi in (0.6180339887498949, 0.4142135623730951,
                        0.7320508075688772, 0.2360679774997898)]
    return {"n": int(x.size), "sums": sums, "scale": float(np.sum(np.abs(x)))}


def sketches_agree(a: dict, b: dict) -> bool:
    if a["n"] != b["n"]:
        return False
    tol = REL_TOL * max(a["scale"], b["scale"])
    return all(abs(x - y) <= tol for x, y in zip(a["sums"], b["sums"]))


def floats_agree(a, b, exact: bool) -> bool:
    """Elementwise: bitwise equal when exact, else within REL_TOL relative."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        x, y = float(x), float(y)
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if exact or not math.isclose(x, y, rel_tol=REL_TOL, abs_tol=0.0):
            return False
    return True


def blob_agrees(obs: dict, ref: dict, exact: bool) -> bool:
    """A large array recorded as {"sha256", "sketch"}."""
    if exact:
        return obs["sha256"] == ref["sha256"]
    return sketches_agree(obs["sketch"], ref["sketch"])
