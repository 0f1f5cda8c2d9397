"""Golden references: pinned outputs that refactors and speedups must keep.

The files under ``tests/golden/`` hold float reprs of trained parameters
(GD, SGD and DP-GD on a tiny architecture), the training outputs of every
hidden activation (the three optimizers, ``loss_and_grad``,
``per_example_grads`` and one reconstructor loss gradient), the per-cell
success rates of the ReRo soundness grid, one closed-form GLM
reconstruction (logistic, lambda = 0.1) and the artifacts of a toy CLI
pipeline (``train-released``, ``gen-shadows`` white-box and black-box,
``dp-sweep``). Parameters, training outputs and the reconstruction are compared bitwise when the numpy/BLAS build matches the one
they were recorded on, and within 1e-10 relative otherwise; CLI artifacts are
compared by sha256 on the recorded build and by summary values within 1e-10
relative otherwise. Rates are counts over trials and are always compared
exactly. ``tests/test_acceptance.py`` pins the A2 shadow feature matrix the
same way.

Re-record only for a change that alters these outputs on purpose:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from reconlab import cli, data, glm, nn, shadow
from reconlab.persist import load_model
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
CLI_CONFIG = """\
[profile]
name=desk_synthetic
seed=11
[data]
d=8
num_classes=3
n=200
cluster_std=0.15
[split]
fixed_size=40
shadow_size=130
test_target_size=3
split_seed=5
[released]
hidden_widths=6
epochs=8
learning_rate=0.2
[reconn]
epochs=10
batch_size=64
seed=7
"""
CLI_RUNS = {
    "released": ["train-released"],
    "whitebox": ["gen-shadows"],
    "blackbox": ["gen-shadows", "--featurizer", "blackbox", "--probe-size", "20"],
    "dp": ["dp-sweep", "--sigmas", "0,2", "--repeats", "2"],
}


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


def activation_outputs() -> dict:
    """For each hidden activation on ARCH: the three optimizers' trained
    parameters, then the loss, gradient and first five per-example gradients at
    the GD-trained parameters; plus one reconstructor loss and gradient."""
    ds = _dataset()
    out = {}
    for act in sorted(nn.ACTIVATIONS):
        arch = nn.MlpArchitecture(ARCH.layer_widths, activation=act)
        got = {name: nn.train(ds, arch, cfg).flatten() for name, cfg in CONFIGS.items()}
        params = nn.ModelParams(arch, got["gd"])
        loss, grad = nn.loss_and_grad(params, ds.X, ds.y)
        got["loss"] = np.array([loss])
        got["grad"] = grad.flatten()
        got["per_example"] = nn.per_example_grads(params, ds.X[:5], ds.y[:5]).ravel()
        out[act] = got
    g = np.random.default_rng(9)
    arch = nn.MlpArchitecture((6, 8, 8, 4), activation="relu")
    params = nn.init_params(arch, 9)
    grad = nn.ModelParams(arch, np.empty(arch.parameter_count))
    loss = shadow._reconn_loss_grad(params, g.normal(size=(20, 6)), g.uniform(size=(20, 4)), grad)
    out["reconn"] = {"loss": np.array([loss]), "grad": grad.flatten()}
    return out


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


def summary(values) -> list:
    """Sum, absolute sum, sum of squares, min and max of the finite values."""
    v = np.asarray(values, dtype=np.float64).ravel()
    v = v[np.isfinite(v)]
    return [float(v.sum()), float(np.abs(v).sum()), float((v * v).sum()), float(v.min()), float(v.max())]


def _artifact_values(path: Path) -> np.ndarray:
    if path.suffix == ".model":
        return load_model(str(path))[0].flatten()
    if path.suffix == ".bin":
        return np.fromfile(path, dtype="<f8")
    if path.suffix == ".header":
        return np.array([float(v) for line in path.read_text().splitlines()
                         if line.startswith("norm_") for v in line.partition("=")[2].split(",")])
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def cli_artifacts(root: Path) -> dict:
    """Run the toy CLI pipeline under root; sha256 and summary of each artifact
    (released models, shadow headers and matrices, the dp-sweep table)."""
    cfg = root / "toy.cfg"
    cfg.write_text(CLI_CONFIG)
    for name, (command, *flags) in CLI_RUNS.items():
        assert cli.main([command, "--config", str(cfg), "--out", str(root / name), *flags]) == 0
    paths = [p for p in sorted(root.rglob("*"))
             if p.suffix == ".model" or p.name in ("shadows.header", "shadows.bin", "dp_sweep.csv")]
    return {
        str(p.relative_to(root)): {"sha256": hashlib.sha256(p.read_bytes()).hexdigest(),
                                   "summary": summary(_artifact_values(p))}
        for p in paths
    }


def _load(name: str) -> dict:
    with open(GOLDEN / name) as f:
        return json.load(f)


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    params = {name: [float(v) for v in p] for name, p in trained_params().items()}
    acts = {act: {key: [float(v) for v in vec] for key, vec in got.items()}
            for act, got in activation_outputs().items()}
    for name, payload in (
        ("train_params.json", {"build": build(), "arch": list(ARCH.layer_widths), "params": params}),
        ("activations.json", {"build": build(), "arch": list(ARCH.layer_widths), "outputs": acts}),
        ("rero_grid_rates.json", {"grid": GRID, "cells": grid_rates()}),
        ("glm_reconstruction.json",
         {"build": build(), "instance": GLM, "x_y": [float(v) for v in glm_reconstruction()]}),
    ):
        with open(GOLDEN / name, "w") as f:
            json.dump(payload, f, indent=1)
            f.write("\n")
    with tempfile.TemporaryDirectory() as root:
        payload = {"build": build(), "config": CLI_CONFIG, "runs": CLI_RUNS,
                   "artifacts": cli_artifacts(Path(root))}
    with open(GOLDEN / "cli_artifacts.json", "w") as f:
        json.dump(payload, f, indent=1)
        f.write("\n")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trained_params_match_golden(name):
    golden = _load("train_params.json")
    want = np.array(golden["params"][name])
    assert_matches(golden["build"], trained_params()[name], want)


def assert_matches(recorded_build: dict, got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    if recorded_build == build():
        assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_activation_outputs_match_golden():
    golden = _load("activations.json")
    assert golden["arch"] == list(ARCH.layer_widths)
    got = activation_outputs()
    assert sorted(got) == sorted(golden["outputs"])
    for act, want in golden["outputs"].items():
        assert sorted(got[act]) == sorted(want), act
        for key, vec in want.items():
            assert_matches(golden["build"], got[act][key], np.array(vec))


def test_rero_grid_rates_match_golden():
    golden = _load("rero_grid_rates.json")
    assert golden["grid"] == GRID
    assert grid_rates() == golden["cells"]


def test_glm_reconstruction_matches_golden():
    golden = _load("glm_reconstruction.json")
    assert golden["instance"] == GLM
    assert_matches(golden["build"], glm_reconstruction(), np.array(golden["x_y"]))


def test_cli_artifacts_match_golden(tmp_path):
    golden = _load("cli_artifacts.json")
    assert golden["config"] == CLI_CONFIG and golden["runs"] == CLI_RUNS
    got = cli_artifacts(tmp_path)
    assert sorted(got) == sorted(golden["artifacts"])
    for name, want in golden["artifacts"].items():
        if golden["build"] == build():
            assert got[name]["sha256"] == want["sha256"], name
        assert_matches(golden["build"], np.array(got[name]["summary"]), np.array(want["summary"]))


if __name__ == "__main__":
    record()
