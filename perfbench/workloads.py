"""The four benchmark workloads.

Each workload is a closed loop with one client: the benchmark's process runs
the stages in order and starts the next pass only when the last one ended.
A workload turns the seed into inputs (``prepare``), runs one pass through
the library's public entry points (``run``), reads the pass's outputs into
an observation (``observe``) and counts the operations that failed
(``check``). The program sees only the generated config files and arrays.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
import sys
import time
import traceback

import numpy as np

import stats
from reconlab import cli, glm


def subseed(seed: int, label: str) -> int:
    """A 31-bit seed derived from the workload seed, one per config field."""
    h = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=4).digest()
    return int.from_bytes(h, "little") >> 1


def mlp_config(seed: int, z: dict, hidden: int) -> dict:
    """Config sections for a desk_synthetic profile trained with full-batch GD."""
    return {
        "profile": {"name": "desk_synthetic", "seed": subseed(seed, "data")},
        "data": {"d": z["d"], "num_classes": 10, "n": z["n"], "cluster_std": 0.15},
        "split": {"fixed_size": z["fixed"], "shadow_size": z["shadows"],
                  "test_target_size": z["targets"], "split_seed": subseed(seed, "split")},
        "released": {"hidden_widths": hidden, "activation": "elu", "optimizer": "gd_momentum",
                     "learning_rate": 0.2, "momentum": 0.9, "epochs": z["epochs"],
                     "init_seed": subseed(seed, "init"), "shuffle_seed": subseed(seed, "shuffle"),
                     "noise_seed": subseed(seed, "noise")},
        "reconn": {"epochs": z["reconn_epochs"], "batch_size": z["reconn_batch"],
                   "seed": subseed(seed, "reconn")},
    }


def write_config(workdir: str, name: str, sections: dict) -> str:
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, name)
    with open(path, "w") as f:
        for section, fields in sections.items():
            f.write(f"[{section}]\n")
            for key, val in fields.items():
                f.write(f"{key}={val}\n")
    return path


def call_cli(argv, tracer=None):
    """reconlab.cli.main(argv) in-process: (exit code, stdout, seconds).

    An exception escaping main counts as a failed command, not a failed run.
    """
    buf = io.StringIO()
    span = tracer.span("cli." + argv[0].replace("-", "_"), "cli") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        rc = -1
    return rc, buf.getvalue(), time.perf_counter() - t0


def _digest(arr: np.ndarray) -> dict:
    """An array as its little-endian float64 bytes' sha256 and a sketch."""
    return {"sha256": hashlib.sha256(arr.astype("<f8").tobytes()).hexdigest(),
            "sketch": stats.sketch(arr)}


def _file_digest(path: str):
    return _digest(np.fromfile(path, dtype="<f8")) if os.path.exists(path) else None


def _csv_rows(path: str):
    """Data rows of a CSV written by persist.write_csv, as lists of strings."""
    if not os.path.exists(path):
        return None
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip() and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


class DeskGdAttack:
    """train-released -> gen-shadows -> attack on a desk_synthetic config."""

    name = "desk_gd_attack"
    rate_name = "models_per_s"
    # Sized so that one pass takes about a second: a run then holds enough
    # passes for its fastest one to be steady on a shared host.
    FULL = dict(d=64, n=5000, fixed=500, shadows=300, targets=50, epochs=5,
                reconn_epochs=30, reconn_batch=128)
    TOY = dict(d=8, n=300, fixed=30, shadows=24, targets=4, epochs=3,
               reconn_epochs=2, reconn_batch=8)

    def prepare(self, seed, workdir, toy=False):
        z = self.TOY if toy else self.FULL
        config = write_config(workdir, "desk.cfg", mlp_config(seed, z, hidden=10))
        # operations: released models, shadow models, attacked targets
        return {"config": config, "targets": z["targets"], "shadows": z["shadows"],
                "items": z["targets"] + z["shadows"], "ops": 2 * z["targets"] + z["shadows"]}

    def run(self, state, out, tracer=None):
        cfg = state["config"]
        rel, sh, att = (os.path.join(out, d) for d in ("released", "shadows", "attack"))
        return {
            "train_released": call_cli(["train-released", "--config", cfg, "--out", rel], tracer),
            "gen_shadows": call_cli(["gen-shadows", "--config", cfg, "--out", sh], tracer),
            "attack": call_cli(["attack", "--config", cfg, "--shadows", sh,
                                "--released", rel, "--out", att], tracer),
        }

    def observe(self, state, out, raw):
        rows = _csv_rows(os.path.join(out, "attack", "attack_results.csv"))
        obs = {"rc": {k: v[0] for k, v in raw.items()},
               "ref": {"shadows": _file_digest(os.path.join(out, "shadows", "shadows.bin")),
                       "attack_mse": None if rows is None else [r[1] for r in rows]},
               "margins": {}}
        summary = os.path.join(out, "attack", "summary.txt")
        if os.path.exists(summary):
            with open(summary) as f:
                kv = dict(ln.strip().split("=", 1) for ln in f if "=" in ln and not ln.startswith("#"))
            obs["margins"]["attack_margin"] = (float(kv["oracle_threshold"])
                                               - float(kv["mean_attack_mse"]))
        return obs

    def check(self, state, obs, ref, exact):
        t, k = state["targets"], state["shadows"]
        failed = 0
        if obs["rc"]["train_released"] != 0:
            failed += t
        blob = obs["ref"]["shadows"]
        if (obs["rc"]["gen_shadows"] != 0 or blob is None
                or (ref and not stats.blob_agrees(blob, ref["shadows"], exact))):
            failed += k
        mses = obs["ref"]["attack_mse"]
        if obs["rc"]["attack"] != 0 or mses is None or len(mses) != t:
            return failed + t
        for i, m in enumerate(mses):
            if not _finite(m) or (ref and not stats.floats_agree([m], [ref["attack_mse"][i]], exact)):
                failed += 1
        return failed


class DpSweep:
    """dp-sweep at the A4 scale with sigma 0 (plain GD) and sigma 2 (DP-GD)."""

    name = "dp_sweep"
    rate_name = "models_per_s"
    SIGMAS = ("0", "2")
    # the A4 shapes with fewer epochs, so a pass takes about a second
    FULL = dict(d=32, n=2000, fixed=200, shadows=300, targets=20, epochs=4,
                reconn_epochs=20, reconn_batch=64)
    TOY = dict(d=8, n=300, fixed=30, shadows=24, targets=3, epochs=3,
               reconn_epochs=2, reconn_batch=8)

    def prepare(self, seed, workdir, toy=False):
        z = self.TOY if toy else self.FULL
        sections = mlp_config(seed, z, hidden=8)
        sections["dp"] = {"clip_norm": 1.0, "delta": 1e-5}
        config = write_config(workdir, "dp.cfg", sections)
        models = z["shadows"] + z["targets"]
        # per sigma: shadow and released models, plus the attacked targets
        return {"config": config, "per_sigma_ops": models + z["targets"],
                "items": len(self.SIGMAS) * models,
                "ops": len(self.SIGMAS) * (models + z["targets"])}

    def run(self, state, out, tracer=None):
        return {"dp_sweep": call_cli(["dp-sweep", "--config", state["config"], "--out", out,
                                      "--sigmas", ",".join(self.SIGMAS), "--repeats", "1"],
                                     tracer)}

    def observe(self, state, out, raw):
        rc, text, _ = raw["dp_sweep"]
        rows = _csv_rows(os.path.join(out, "dp_sweep.csv"))
        obs = {"rc": rc, "ref": {"rows": rows}, "margins": {}}
        m = re.search(r"^oracle_threshold=(\S+)$", text, re.M)
        if m and rows and len(rows) == len(self.SIGMAS):
            threshold = float(m.group(1))
            obs["margins"]["attack_margin"] = threshold - float(rows[0][2])
            obs["margins"]["dp_margin"] = float(rows[1][2]) - threshold
        return obs

    def check(self, state, obs, ref, exact):
        rows = obs["ref"]["rows"]
        if obs["rc"] != 0 or rows is None or len(rows) != len(self.SIGMAS):
            return state["ops"]
        failed = 0
        for i, row in enumerate(rows):
            if (not _finite(row[2])
                    or (ref and not stats.floats_agree(row, ref["rows"][i], exact))):
                failed += state["per_sigma_ops"]
        return failed


class ReroGrid:
    """rero-check: the 27-cell ReRo soundness grid."""

    name = "rero_grid"
    rate_name = "trials_per_s"
    CELLS = 27
    LINE = re.compile(r"^noise=\S+ eta=\S+ prior=\d+ kappa=\S+ gamma=(\S+) rate=(\S+) (ok|VIOLATION)$", re.M)

    def prepare(self, seed, workdir, toy=False):
        # 200 trials per cell keep a pass near a second; soundness allows
        # three 99% confidence half-widths, so it holds at this count too
        trials = 100 if toy else 200
        return {"seed": seed, "trials": trials,
                "items": self.CELLS * trials, "ops": self.CELLS}

    def run(self, state, out, tracer=None):
        return {"rero_check": call_cli(["rero-check", "--trials", str(state["trials"]),
                                        "--seed", str(state["seed"])], tracer)}

    def observe(self, state, out, raw):
        rc, text, _ = raw["rero_check"]
        cells = self.LINE.findall(text)
        obs = {"rc": rc, "ref": {"rates": [c[1] for c in cells]},
               "sound": [c[2] == "ok" for c in cells], "margins": {}}
        if cells:
            obs["margins"]["rero_min_slack"] = min(float(g) - float(r) for g, r, _ in cells)
        return obs

    def check(self, state, obs, ref, exact):
        rates = obs["ref"]["rates"]
        if obs["rc"] not in (0, 1) or len(rates) != self.CELLS:
            return self.CELLS
        return sum(
            1 for i, rate in enumerate(rates)
            if not obs["sound"][i]
            or (ref and not stats.floats_agree([rate], [ref["rates"][i]], exact)))


class GlmClosedForm:
    """glm.fit_glm then glm.reconstruct_glm over planted A1-style instances."""

    name = "glm_closed_form"
    rate_name = "glm_instances_per_s"
    FAMILIES = (("linear", 0.0), ("ridge", 0.1), ("ridge", 1.0),
                ("logistic", 0.0), ("logistic", 0.1))
    GATE = 1e-6  # max abs error of a recovered point, as in acceptance A1

    def prepare(self, seed, workdir, toy=False):
        count = 10 if toy else 500
        # Shapes come from a fixed stream and values from the seed, so every
        # seed asks for the same amount of work.
        shapes = np.random.default_rng(0)
        g = np.random.default_rng(subseed(seed, "glm"))
        specs = [glm.GlmSpec(f, lam) for f, lam in self.FAMILIES]
        instances = []
        for i in range(count):
            spec = specs[i % len(specs)]
            d = int(shapes.integers(2, 51))
            if spec.family == "logistic":
                # n >= 8d keeps the draw far from separable, where the optimum
                # is not finite
                n = int(shapes.integers(8 * d, 1001))
                Y = g.integers(0, 2, size=n + 1).astype(float)
            else:
                n = int(shapes.integers(d + 10, 1001))
                Y = g.normal(size=n + 1)
            X = np.hstack([np.ones((n + 1, 1)), g.normal(size=(n + 1, d))])
            # the last row is the planted target
            instances.append((spec, X, Y))
        return {"instances": instances, "items": count, "ops": count}

    def run(self, state, out, tracer=None):
        points = []
        for spec, X, Y in state["instances"]:
            try:
                theta = glm.fit_glm(X, Y, spec)
                points.append(glm.reconstruct_glm(theta, X[:-1], Y[:-1], spec))
            except glm.GlmError:
                points.append(None)
        return {"points": points}

    def observe(self, state, out, raw):
        flat, errors = [], []
        for (spec, X, Y), p in zip(state["instances"], raw["points"]):
            if p is None:
                flat.append(np.full(X.shape[1] + 1, np.nan))
                errors.append(math.inf)
                continue
            x, y = p
            flat.append(np.append(x, y))
            errors.append(max(float(np.max(np.abs(x - X[-1]))), abs(y - Y[-1])))
        return {"errors": errors, "ref": {"points": _digest(np.concatenate(flat))},
                "margins": {"glm_max_abs_err": max(errors)}}

    def check(self, state, obs, ref, exact):
        if ref and not stats.blob_agrees(obs["ref"]["points"], ref["points"], exact):
            return state["ops"]
        return sum(1 for e in obs["errors"] if not e <= self.GATE)


WORKLOADS = {w.name: w for w in (DeskGdAttack(), DpSweep(), ReroGrid(), GlmClosedForm())}
