"""One benchmark run: set-up, timed passes, output checks and metrics.

End-to-end metrics come from untraced passes. With tracing on, the run
first times untraced passes for half its budget, then traced passes; the
per-layer metrics come from the traced passes' spans, and the ratio of the
two pass times is the tracing overhead.

On a shared host the same work runs at speeds that differ by up to half, for
seconds to minutes at a time, so raw pass times say as much about the
neighbours as about the program. A fixed probe that does not use the library
is timed before the first pass and after every pass. Each pass time is scaled
to the host speed at which the probe takes PROBE_REF_S, by the mean of the
probes on either side of it, and ``wall_s`` is the median scaled pass. A pass
takes about a second, so a run holds a few dozen of them. Set-up time is
reported as measured: it runs at the start and the end of a run, away from
the probes.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import stats
import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD_PATH = os.path.join(HERE, "record.json")
SETUPS = 3

# Seconds the probe takes at the reference host speed: its usual time on the
# 2-core x86_64 host the references in record.json were recorded on. A
# constant, so that scaled times of two runs or two commits compare directly.
PROBE_REF_S = 0.020
_PROBE_RNG = np.random.default_rng(0)
_PROBE_X = _PROBE_RNG.normal(size=(501, 64))
_PROBE_W = _PROBE_RNG.normal(size=(64, 10))
_PROBE_BIG = _PROBE_RNG.normal(size=1 << 20)

# Per-layer metrics, by name. The stat is the last dotted part; what comes
# before it is a span name, or a layer name for accounting and self_s.
PER_LAYER = [
    "cli.train_released.s", "cli.gen_shadows.s", "cli.attack.s", "cli.dp_sweep.s",
    "cli.rero_check.s", "cli.load_profile.calls", "cli.load_profile.s",
    "nn.train.gd.calls", "nn.train.gd.ms_p50", "nn.train.gd.ms_p90",
    "nn.train.dp.calls", "nn.train.dp.ms_p50", "nn.train.dp.ms_p90",
    "nn.loss_and_grad.calls", "nn.loss_and_grad.us_p50", "nn.loss_and_grad.us_p99",
    "nn.per_example_grads.calls", "nn.per_example_grads.us_p50", "nn.clip_rows.us_p50",
    "shadow.gen_shadow_models.s", "shadow.gen_shadow_models.shadows_per_s",
    "shadow.build_shadow_set.s", "shadow.train_reconn.s", "shadow.train_reconn.steps_per_s",
    "shadow.attack.ms_p50", "shadow.attack.ms_p90",
    "persist.save_model.calls", "persist.save_model.ms_p50", "persist.load_model.ms_p50",
    "shadow.ShadowSet.save.s", "shadow.ShadowSet.load.s", "data.save_csv.s", "data.load_csv.s",
    "io.bytes_written",
    "data.synth_classification.s", "data.split.s",
    "metrics.oracle_report.calls", "metrics.oracle_report.s",
    "rero.empirical_rero.s", "rero.map_attack_finite.calls", "rero.map_attack_finite.us_p50",
    "rero.kappa_monte_carlo.s",
    "rng.Rng.child.calls", "rng.Rng.child.us_p50",
    "accounting.calls", "accounting.s",
    "glm.fit_glm.calls", "glm.fit_glm.us_p50", "glm.fit_glm.us_p99",
    "glm.reconstruct_glm.us_p50", "glm.reconstruct_glm.us_p99",
] + [f"{layer}.self_s" for layer in
     ("cli", "nn", "shadow", "persist", "data", "metrics", "rero", "rng", "glm")] + [
    "trace.overhead_frac",
]
NOT_MEASURED = {
    "mia": "its cost is nn.train at the shapes desk_gd_attack already measures",
    "blackbox and layers featurizers": "they run the same shadow functions at another feature length",
}
WRITERS = ("persist.save_model", "persist.write_csv", "data.save_csv", "shadow.ShadowSet.save")
LAYERS = {"accounting"}


def unit_of(metric: str) -> str:
    stat = metric.rsplit(".", 1)[1]
    if stat == "calls":
        return "count"
    if stat.endswith("_per_s"):
        return "1/s"
    if stat.startswith(("ms_", "us_")):
        return stat[:2]
    return {"s": "s", "self_s": "s", "bytes_written": "B", "overhead_frac": "ratio"}[stat]


# ----------------------------------------------------------- run record

def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    from reconlab import shadow
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "workers": shadow.default_workers(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def build_key(env: dict) -> tuple:
    """What must match for recorded outputs to be compared bitwise."""
    return tuple(env[k] for k in ("python", "numpy", "openblas", "machine"))


def git_sha(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def load_record(path: str = RECORD_PATH) -> dict:
    if not os.path.exists(path):
        return {"run_record": {}, "references": {}}
    with open(path) as f:
        return json.load(f)


# ----------------------------------------------------------------- run

def fresh_import_s() -> float:
    """Seconds to import reconlab.cli in a new interpreter with this environment."""
    code = ("import time; t = time.perf_counter(); import reconlab.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def probe() -> float:
    """Seconds for a fixed mix of the kinds of work the workloads do:
    interpreter loops, an MLP-sized forward and backward product, and
    allocating and streaming a few megabytes."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i
    for _ in range(120):
        h = _PROBE_X @ _PROBE_W
        h = np.where(h > 0, h, np.expm1(np.minimum(h, 0)))
        _PROBE_X.T @ h
    for _ in range(3):
        _PROBE_BIG.copy().sum()
    return time.perf_counter() - t0


def run_passes(wl, state, workdir, budget_s, ref, exact, tracer=None):
    """Timed passes until the next would overrun budget_s; at least one.

    The probe runs before the first pass and after each one, so pass i lies
    between probes i and i + 1. Each pass is checked against the recorded
    reference, or, without one, against the run's first pass, which must
    repeat bit for bit.
    """
    walls, attempted, failed, first, obs = [], 0, 0, None, None
    start = time.perf_counter()
    probes = [probe()]
    while not walls or time.perf_counter() - start + statistics.median(walls) <= budget_s:
        out = os.path.join(workdir, "pass")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        if tracer is not None:
            tracer.run_id += 1
            tracer.install(spans.library_targets())
        t0 = time.perf_counter()
        try:
            raw = wl.run(state, out, tracer)
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        probes.append(probe())
        obs = wl.observe(state, out, raw)
        walls.append(wall)
        attempted += state["ops"]
        pass_failed = wl.check(state, obs, ref or first, exact if ref else True)
        failed += pass_failed
        if first is None and pass_failed == 0:
            first = obs["ref"]
    shutil.rmtree(os.path.join(workdir, "pass"), ignore_errors=True)
    return {"walls": walls, "probes": probes, "attempted": attempted, "failed": failed,
            "obs": obs, "ref": first}


def run(workload: str, seed: int, seconds: float, traced: bool, workdir: str,
        import_s: float = 0.0, toy: bool = False, record: bool = False) -> dict:
    wl = WORKLOADS[workload]
    env = environment()
    saved = load_record()
    recorded = saved.get("references", {}).get(workload, {}).get(str(seed))
    if toy or record:
        recorded = None
    exact = build_key(env) == tuple(saved.get("run_record", {}).get("build_key", ()))

    prepare_times, state = [], None
    for _ in range(SETUPS):
        shutil.rmtree(os.path.join(workdir, "input"), ignore_errors=True)
        state = None
        t0 = time.perf_counter()
        state = wl.prepare(seed, os.path.join(workdir, "input"), toy)
        prepare_times.append(time.perf_counter() - t0)

    budget = seconds / 2 if traced else seconds
    plain = run_passes(wl, state, workdir, budget, recorded, exact)
    result = {"workload": workload, "seed": seed, "env": env, "reference": recorded is not None,
              "exact": exact, "plain": plain, "items": state["items"]}
    if traced:
        tracer = spans.Tracer()
        # traced passes must reproduce the untraced outputs bit for bit
        result["traced"] = run_passes(wl, state, workdir, seconds - budget,
                                      recorded or plain["ref"], exact if recorded else True,
                                      tracer)
        result["tracer"] = tracer
    result["peak_rss_mb"] = peak_rss_mb()
    # Set-up ran SETUPS times: the library import (this process's own, then
    # fresh interpreters, timed after the peak RSS is read so they do not
    # count in it) plus input generation. The median is reported.
    if import_s:
        imports = [import_s] + [fresh_import_s() for _ in range(SETUPS - 1)]
    else:  # the caller did not time its import; count input generation only
        imports = [0.0] * SETUPS
    result["setup_s"] = statistics.median(i + p for i, p in zip(imports, prepare_times))
    result["attempted"] = plain["attempted"] + result.get("traced", {}).get("attempted", 0)
    result["failed"] = plain["failed"] + result.get("traced", {}).get("failed", 0)
    if record and result["failed"] == 0:
        save_reference(saved, workload, seed, plain["ref"], env)
    return result


def save_reference(saved: dict, workload: str, seed: int, ref: dict, env: dict):
    root = os.path.dirname(HERE)
    rec = saved.setdefault("run_record", {})
    rec["build_key"] = list(build_key(env))
    rec["recorded_with"] = dict(env, git_sha=git_sha(root))
    rec["not_measured"] = NOT_MEASURED
    refs = saved.setdefault("references", {}).setdefault(workload, {})
    refs[str(seed)] = ref
    rec["seeds"] = {w: sorted(int(s) for s in r) for w, r in sorted(saved["references"].items())}
    with open(RECORD_PATH, "w") as f:
        json.dump(saved, f, indent=1, sort_keys=True)
        f.write("\n")


# ------------------------------------------------------------- metrics

def speeds(passes: dict) -> list:
    """Per pass, the reference probe time over the probe time around it."""
    p = passes["probes"]
    return [2 * PROBE_REF_S / (p[i] + p[i + 1]) for i in range(len(passes["walls"]))]


def scaled_wall(passes: dict) -> float:
    """Median pass time at the reference host speed."""
    return statistics.median(w * f for w, f in zip(passes["walls"], speeds(passes)))


def end_to_end(result: dict) -> dict:
    wall = scaled_wall(result["plain"])
    return {
        "setup_s": (result["setup_s"], "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (result["items"] / wall, "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result: dict):
    """(metrics, omitted, breakdown). Totals are per traced pass; a percentile
    without enough samples beyond it, or a span never entered, reads 0 and is
    listed in omitted."""
    passes = len(result["traced"]["walls"])
    summary = spans.summarize(result["tracer"].spans)
    by_layer = {}
    for name, e in summary.items():
        agg = by_layer.setdefault(e["layer"], {"durations": [], "self_s": 0.0})
        agg["durations"] += e["durations"]
        agg["self_s"] += e["self_s"]

    metrics, omitted = {}, []
    for metric in PER_LAYER:
        base, stat = metric.rsplit(".", 1)
        unit = unit_of(metric)
        e = (by_layer if base in LAYERS or stat == "self_s" else summary).get(base)
        value = 0.0
        if metric == "trace.overhead_frac":
            value = scaled_wall(result["traced"]) / scaled_wall(result["plain"]) - 1.0
        elif metric == "io.bytes_written":
            value = sum(summary[n]["count"] for n in WRITERS if n in summary) / passes
        elif e is None:
            omitted.append(metric)
        elif stat == "calls":
            value = len(e["durations"]) / passes
        elif stat == "s":
            value = sum(e["durations"]) / passes
        elif stat == "self_s":
            value = e["self_s"] / passes
        elif stat.endswith("_per_s"):
            value = e["count"] / sum(e["durations"])
        else:
            t = stats.timing_summary(e["durations"])
            key = stat[3:]
            if key in t:
                value = t[key] * (1e3 if unit == "ms" else 1e6)
            else:
                omitted.append(metric)
        metrics[metric] = (value, unit)

    traced_wall = sum(result["traced"]["walls"])
    breakdown = sorted(
        ((name, e["layer"], len(e["durations"]) / passes, sum(e["durations"]) / passes,
          e["self_s"] / passes, e["self_s"] / traced_wall, stats.timing_summary(e["durations"]))
         for name, e in summary.items()),
        key=lambda row: -row[4])
    outside = traced_wall - sum(s[spans.END] - s[spans.START]
                                for s in result["tracer"].spans if s[spans.PARENT] < 0)
    breakdown.append(("(outside any span)", "bench", 1, outside / passes,
                      outside / passes, outside / traced_wall, None))
    return metrics, omitted, breakdown
