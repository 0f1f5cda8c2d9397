"""Golden references: pinned outputs that refactors and speedups must keep.

The files under ``tests/golden/`` hold float reprs of trained parameters
(GD, SGD and DP-GD on a tiny architecture), the per-cell success rates of
the ReRo soundness grid and one closed-form GLM reconstruction (logistic,
lambda = 0.1). Parameters and the reconstruction are compared bitwise when
the numpy/BLAS build matches the one they were recorded on, and within 1e-10
relative otherwise. Rates are counts over trials and are always compared exactly.

Re-record only for a change that alters these outputs on purpose:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import platform
from pathlib import Path

import numpy as np
import pytest

from reconlab import data, glm, nn
from reconlab.rero import rero_soundness_grid

GOLDEN = Path(__file__).parent / "golden"
ARCH = nn.MlpArchitecture((4, 5, 4, 3))
CONFIGS = {
    "gd": nn.TrainConfig(optimizer="gd_momentum", learning_rate=0.2, epochs=20,
                         init_seed=3, shuffle_seed=4, noise_seed=5),
    "sgd": nn.TrainConfig(optimizer="sgd_momentum", learning_rate=0.1, epochs=8,
                          batch_size=5, init_seed=3, shuffle_seed=4, noise_seed=5),
    "dpgd": nn.TrainConfig(optimizer="dpgd", learning_rate=0.2, epochs=10, clip_norm=1.0,
                           noise_multiplier=0.7, init_seed=3, shuffle_seed=4, noise_seed=5),
}
GRID = {"n_trials": 100, "seed": 0}
GLM = {"family": "logistic", "lam": 0.1, "d": 5, "n": 60, "seed": 8}


def build() -> dict:
    """The numpy version and BLAS build (with its detected kernel) of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or f"{blas['name']} {blas['version']}",
        "machine": platform.machine(),
    }


def _dataset():
    return data.synth_classification(d=4, num_classes=3, n=17, cluster_std=0.3, seed=21)


def trained_params() -> dict:
    ds = _dataset()
    return {name: nn.train(ds, ARCH, cfg).flatten() for name, cfg in CONFIGS.items()}


def grid_rates() -> list:
    return [
        {"noise": c["noise"], "eta": c["eta"], "prior": c["prior"], "rate": c["rate"]}
        for c in rero_soundness_grid(**GRID)
    ]


def glm_reconstruction() -> np.ndarray:
    """(x_hat, y_hat) of the target planted last in a seeded instance, as one vector."""
    g = np.random.default_rng(GLM["seed"])
    n, d = GLM["n"], GLM["d"]
    X = np.hstack([np.ones((n + 1, 1)), g.normal(size=(n + 1, d))])
    Y = g.integers(0, 2, size=n + 1).astype(float)
    spec = glm.GlmSpec(GLM["family"], GLM["lam"])
    theta = glm.fit_glm(X, Y, spec)
    x_hat, y_hat = glm.reconstruct_glm(theta, X[:-1], Y[:-1], spec)
    return np.append(x_hat, y_hat)


def _load(name: str) -> dict:
    with open(GOLDEN / name) as f:
        return json.load(f)


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    params = {name: [float(v) for v in p] for name, p in trained_params().items()}
    for name, payload in (
        ("train_params.json", {"build": build(), "arch": list(ARCH.layer_widths), "params": params}),
        ("rero_grid_rates.json", {"grid": GRID, "cells": grid_rates()}),
        ("glm_reconstruction.json",
         {"build": build(), "instance": GLM, "x_y": [float(v) for v in glm_reconstruction()]}),
    ):
        with open(GOLDEN / name, "w") as f:
            json.dump(payload, f, indent=1)
            f.write("\n")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trained_params_match_golden(name):
    golden = _load("train_params.json")
    want = np.array(golden["params"][name])
    _assert_matches(golden["build"], trained_params()[name], want)


def _assert_matches(recorded_build: dict, got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    if recorded_build == build():
        assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_rero_grid_rates_match_golden():
    golden = _load("rero_grid_rates.json")
    assert golden["grid"] == GRID
    assert grid_rates() == golden["cells"]


def test_glm_reconstruction_matches_golden():
    golden = _load("glm_reconstruction.json")
    assert golden["instance"] == GLM
    _assert_matches(golden["build"], glm_reconstruction(), np.array(golden["x_y"]))


if __name__ == "__main__":
    record()
