"""Golden references: pinned outputs that refactors and speedups must keep.

Each file under ``tests/golden/`` is declared once, in ``PAYLOADS``, by the
function that builds its payload: every key of the file but ``build``, the
numpy/BLAS build the file was recorded on. The files pin:

- ``activations.json``: for each hidden activation on a tiny architecture,
  the parameters GD, SGD and DP-GD train, then ``loss_and_grad`` and
  ``per_example_grads`` at the GD ones; and one reconstructor loss gradient;
- ``train_sha256.json``: the sha256 of ``nn.train``'s parameter bytes, for
  one model and a stack of three, per activation and optimizer (SGD with a
  short last batch, DP-GD with and without noise);
- ``glm_reconstruction.json``: one closed-form GLM reconstruction;
- ``cli_artifacts.json``: sha256 and summary of every artifact of a toy CLI
  pipeline (``train-released``, ``gen-shadows`` white-box and black-box,
  ``dp-sweep``);
- ``a2_shadow_features.json``: shape, sha256 and summary of the A2 shadow
  feature matrix, from the desk models ``tests/test_acceptance.py`` attacks;
- ``rero_grid_rates.json``: the per-cell success rates of the ReRo
  soundness grid.

One rule judges every file (``drift_rows``). In a file that carries
``build``, float arrays compare bitwise on the recorded build and within
max|got - want| <= 1e-10 * max|want| on any other, and sha256 digests compare
only on the recorded build. Everything else (shapes, configs, architectures,
key sets) compares exactly, and a file without ``build`` compares exactly on
every build.

Re-record only for a change that alters these outputs on purpose:
``PYTHONPATH=src python tests/test_golden.py``. It rewrites every file in its
layout and prints the drift rows of the entries it changed. An entry that did
not move keeps its bytes, so ``git diff tests/golden`` shows what moved.
"""

import contextlib
import hashlib
import io
import json
import math
import platform
import re
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from reconlab import cli, data, glm, nn, shadow
from reconlab.persist import SHADOWS, int_tuple, load_model, read_header
from reconlab.rero import rero_soundness_grid
from test_acceptance import desk_models

GOLDEN = Path(__file__).parent / "golden"
REL_BOUND = 1e-10
SHA256 = re.compile("[0-9a-f]{64}")
ARCH = nn.MlpArchitecture((4, 5, 4, 3))
CONFIGS = {
    "gd": nn.TrainConfig(optimizer="gd_momentum", learning_rate=0.2, epochs=20,
                         init_seed=3, shuffle_seed=4, noise_seed=5),
    "sgd": nn.TrainConfig(optimizer="sgd_momentum", learning_rate=0.1, epochs=8,
                          batch_size=5, init_seed=3, shuffle_seed=4, noise_seed=5),
    "dpgd": nn.TrainConfig(optimizer="dpgd", learning_rate=0.2, epochs=10, clip_norm=1.0,
                           noise_multiplier=0.7, init_seed=3, shuffle_seed=4, noise_seed=5),
}
SHA256_CONFIGS = {
    "gd": nn.TrainConfig(optimizer="gd_momentum", learning_rate=0.2, epochs=12,
                         init_seed=3, shuffle_seed=4, noise_seed=5),
    "sgd": nn.TrainConfig(optimizer="sgd_momentum", learning_rate=0.1, epochs=6,
                          batch_size=5, init_seed=3, shuffle_seed=4, noise_seed=5),
    "dpgd": nn.TrainConfig(optimizer="dpgd", learning_rate=0.2, epochs=8, clip_norm=1.0,
                           noise_multiplier=1.5, init_seed=3, shuffle_seed=4, noise_seed=5),
    "dpgd_sigma0": nn.TrainConfig(optimizer="dpgd", learning_rate=0.2, epochs=8, clip_norm=1.0,
                                  noise_multiplier=0.0, init_seed=3, shuffle_seed=4,
                                  noise_seed=5),
}
STACK = 3
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
    # an argument starting with "[" is appended to the config as a section
    "blackbox": ["gen-shadows", "[featurizer]\nmode=blackbox\nprobe_size=20"],
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


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def summary(values) -> list:
    """Sum, absolute sum, sum of squares, min and max of the finite values."""
    v = np.asarray(values, dtype=np.float64).ravel()
    v = v[np.isfinite(v)]
    return [float(v.sum()), float(np.abs(v).sum()), float((v * v).sum()), float(v.min()), float(v.max())]


# ------------------------------------------------------------ payloads

def activations() -> dict:
    """For each hidden activation on ARCH: the three optimizers' trained
    parameters, then the loss, gradient and first five per-example gradients at
    the GD-trained parameters; plus one reconstructor loss and gradient."""
    ds = data.synth_classification(d=4, num_classes=3, n=17, cluster_std=0.3, seed=21)
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
    return {"arch": list(ARCH.layer_widths), "outputs": out}


def train_sha256() -> dict:
    """The sha256 of nn.train(...).flat for one model's 17 rows, and for a
    stack of STACK models sharing its first 16 rows, each with a last row of
    its own (the first model's is the one model's)."""
    ds = data.synth_classification(d=4, num_classes=3, n=16 + STACK, cluster_std=0.3, seed=21)
    n = 16
    X = np.stack([np.vstack([ds.X[:n], ds.X[n + k]]) for k in range(STACK)])
    y = np.stack([np.append(ds.y[:n], ds.y[n + k]) for k in range(STACK)])
    one, stack = data.LabeledDataset(X[0], y[0], 3), SimpleNamespace(X=X, y=y)
    hashes = {}
    for act in sorted(nn.ACTIVATIONS):
        arch = nn.MlpArchitecture(ARCH.layer_widths, activation=act)
        for name, cfg in SHA256_CONFIGS.items():
            configs = [replace(cfg, init_seed=cfg.init_seed + k, noise_seed=cfg.noise_seed + k)
                       for k in range(STACK)]
            hashes[f"{act}/{name}/one"] = sha256(nn.train(one, arch, cfg).flat)
            hashes[f"{act}/{name}/stack"] = sha256(nn.train(stack, arch, *configs).flat)
    return {"hashes": hashes}


def glm_reconstruction() -> dict:
    """(x_hat, y_hat) of the target planted last in a seeded instance, as one vector."""
    g = np.random.default_rng(GLM["seed"])
    n, d = GLM["n"], GLM["d"]
    X = np.hstack([np.ones((n + 1, 1)), g.normal(size=(n + 1, d))])
    Y = g.integers(0, 2, size=n + 1).astype(float)
    spec = glm.GlmSpec(GLM["family"], GLM["lam"])
    theta = glm.fit_glm(X, Y, spec)
    x_hat, y_hat = glm.reconstruct_glm(theta, X[:-1], Y[:-1], spec)
    return {"instance": GLM, "x_y": np.append(x_hat, y_hat)}


def _artifact_values(path: Path) -> np.ndarray:
    if path.suffix == ".model":
        return load_model(str(path))[0].flatten()
    if path.suffix == ".bin":
        return np.fromfile(path, dtype="<f8")
    if path.suffix == ".header":  # the numeric fields: sizes and shapes
        fields, _ = read_header(str(path), SHADOWS)
        numeric = [text for key, text in fields.items()
                   if key != "config_hash" and re.fullmatch("[0-9,]*", text)]
        return np.array([v for text in numeric for v in int_tuple(text)], float)
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def cli_artifacts() -> dict:
    """Run the toy CLI pipeline in a temporary directory; sha256 and summary of
    each artifact (released models, shadow headers and matrices, the dp-sweep
    table)."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        root = Path(tmp)
        for name, (command, *args) in CLI_RUNS.items():
            cfg = root / f"{name}.cfg"
            cfg.write_text(CLI_CONFIG + "".join(a + "\n" for a in args if a.startswith("[")))
            flags = [a for a in args if not a.startswith("[")]
            assert cli.main([command, "--config", str(cfg), "--out", str(root / name), *flags]) == 0
        paths = [p for p in sorted(root.rglob("*"))
                 if p.suffix == ".model" or p.name in ("shadows.header", "shadows.bin", "dp_sweep.csv")]
        artifacts = {
            str(p.relative_to(root)): {"sha256": hashlib.sha256(p.read_bytes()).hexdigest(),
                                       "summary": summary(_artifact_values(p))}
            for p in paths
        }
    return {"config": CLI_CONFIG, "runs": CLI_RUNS, "artifacts": artifacts}


def a2_shadow_features() -> dict:
    """Shape, sha256 and summary of the A2 (white-box) shadow feature matrix."""
    features = np.stack([shadow.featurize(m, shadow.Featurizer("whitebox")) for m in desk_models()])
    return {"shape": list(features.shape), "sha256": sha256(features), "summary": summary(features)}


def rero_grid_rates() -> dict:
    cells = [{"noise": c["noise"], "eta": c["eta"], "prior": c["prior"], "rate": c["rate"]}
             for c in rero_soundness_grid(**GRID)]
    return {"grid": GRID, "cells": cells}


PAYLOADS = {
    "a2_shadow_features.json": a2_shadow_features,
    "activations.json": activations,
    "cli_artifacts.json": cli_artifacts,
    "glm_reconstruction.json": glm_reconstruction,
    "rero_grid_rates.json": rero_grid_rates,
    "train_sha256.json": train_sha256,
}


# ------------------------------------------------------------ the rule

class Drift(NamedTuple):
    """One entry of a golden file that a payload built now differs from."""
    file: str
    path: str
    rule: str  # "bitwise", "relative" (a float array off its recorded build) or "exact"
    abs: float = math.nan  # largest |got - want| of a float array
    rel: float = math.nan  # abs / max|want|
    bound: float = 0.0  # the largest abs the rule allows
    values: str = ""  # got and want, of an entry compared exactly

    @property
    def ok(self) -> bool:
        return self.rule == "relative" and self.abs <= self.bound

    def __str__(self) -> str:
        if self.rule == "exact":
            drift = self.values
        else:
            bound = (f"abs <= {REL_BOUND:g} * max|want| = {self.bound:.3g}"
                     if self.rule == "relative" else "bit for bit")
            drift = f"abs {self.abs:.3g}, rel {self.rel:.3g}; bound {bound}"
        return f"{self.file}{self.path} {self.rule}: {drift}: {'ok' if self.ok else 'FAIL'}"


def _dumps(payload, **kwargs) -> str:
    """payload as its golden file holds it: numpy arrays as lists."""
    return json.dumps(payload, default=lambda a: a.tolist(), **kwargs)


def _float_array(v) -> bool:
    return isinstance(v, list) and bool(v) and all(type(x) is float for x in v)


def drift_rows(name: str, payload: dict, golden: dict) -> list[Drift]:
    """The rows of every entry of golden, the file `name` as loaded, that
    payload differs from, each judged by the module docstring's rule."""
    same_build = golden.get("build", build()) == build()
    rows = []

    def exact(path, got, want):
        rows.append(Drift(name, path, "exact", values=f"got {got!r:.80}, want {want!r:.80}"))

    def walk(path, got, want):
        if isinstance(got, dict) and isinstance(want, dict):
            if got.keys() != want.keys():
                exact(f"{path} keys in one only", sorted(got.keys() - want.keys()),
                      sorted(want.keys() - got.keys()))
            for key in want:
                if key in got:
                    walk(f"{path}[{key!r}]", got[key], want[key])
        elif _float_array(got) and _float_array(want) and len(got) == len(want):
            g, w = np.array(got), np.array(want)
            if g.tobytes() != w.tobytes():
                drift, scale = float(np.max(np.abs(g - w))), float(np.max(np.abs(w)))
                rule, bound = ("bitwise", 0.0) if same_build else ("relative", REL_BOUND * scale)
                rows.append(Drift(name, path, rule, drift, drift / scale if scale else math.inf, bound))
        elif isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
            for i, (g, w) in enumerate(zip(got, want)):
                walk(f"{path}[{i}]", g, w)
        elif isinstance(want, str) and SHA256.fullmatch(want) and not same_build:
            pass
        elif got != want:
            exact(path, got, want)

    walk("", json.loads(_dumps(payload)), {k: v for k, v in golden.items() if k != "build"})
    return rows


@pytest.mark.parametrize("name", PAYLOADS)
def test_payload_matches_golden(name):
    rows = drift_rows(name, PAYLOADS[name](), json.loads((GOLDEN / name).read_text()))
    assert all(row.ok for row in rows), "\n".join(map(str, rows))


def test_every_golden_file_is_registered():
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(PAYLOADS)


def record() -> None:
    """Rewrite every golden file in its layout, printing what moved."""
    for name, make in PAYLOADS.items():
        path = GOLDEN / name
        golden = json.loads(path.read_text()) if path.exists() else {"build": build()}
        payload = make()
        for row in drift_rows(name, payload, golden):
            print(row)
        head = {"build": build()} if "build" in golden else {}
        path.write_text(_dumps({**head, **payload}, indent=1) + "\n")


if __name__ == "__main__":
    record()
