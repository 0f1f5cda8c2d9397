"""reconlab benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload desk_gd_attack --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory. Human-readable lines go to stdout first; the last line
is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones). ``--record`` stores the first pass's outputs as the reference for
this seed in ``perfbench/record.json``.

Workloads (see BENCHMARK.json for why each was chosen): desk_gd_attack,
dp_sweep, rero_grid, glm_closed_form. Not measured on purpose: ``mia``,
whose cost is nn.train at the shapes desk_gd_attack already measures, and
the black-box and layers featurizers, which run the same shadow functions
at another feature length.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("desk_gd_attack", "dp_sweep", "rero_grid", "glm_closed_form")


def pin_environment():
    """One BLAS thread per process, and the library's default worker count,
    so a worker pool cannot put more threads than cores on the machine."""
    os.environ.pop("RECONLAB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_library() -> float:
    """Import reconlab from this checkout's src/; returns the import seconds."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    t0 = time.perf_counter()
    try:
        import reconlab.cli  # noqa: F401
    except ImportError as e:
        raise SystemExit(f"error: cannot import reconlab from {src}: {e}")
    import_s = time.perf_counter() - t0
    origin = os.path.realpath(sys.modules["reconlab"].__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"error: reconlab was imported from {origin}, not {src}")
    return import_s


MARGIN_UNITS = {"attack_margin": "MSE", "dp_margin": "MSE", "rero_min_slack": "prob",
                "glm_max_abs_err": "abs"}


def report(result: dict, traced: bool) -> dict:
    """Print the human-readable report; return the metrics for the JSON line."""
    import bench
    import stats
    from workloads import WORKLOADS

    env, plain = result["env"], result["plain"]
    print(f"workload={result['workload']} seed={result['seed']} trace={int(traced)} "
          f"passes={len(plain['walls'])}")
    print("record: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if not result["reference"]:
        print("reference: none recorded for this seed; passes must repeat bit for bit")
    else:
        print("reference: recorded, compared " + ("bitwise" if result["exact"] else "to 1e-10 relative"))
    walls, probes = plain["walls"], plain["probes"]
    print(f"passes: raw wall median {statistics.median(walls):.4f} s, fastest {min(walls):.4f} s; "
          f"probe median {1e3 * statistics.median(probes):.2f} ms "
          f"(reference {1e3 * bench.PROBE_REF_S:g} ms)")
    e2e = bench.end_to_end(result)
    lines = dict(e2e)
    lines[WORKLOADS[result["workload"]].rate_name] = e2e["ops_per_s"]
    lines["failed_frac"] = (stats.failed_frac(result["attempted"], result["failed"]), "ratio")
    for name, value in plain["obs"]["margins"].items():
        lines[name] = (value, MARGIN_UNITS[name])
    for name, (value, unit) in lines.items():
        print(f"{name} = {value:.6g} {unit}")
    if not traced:
        return e2e

    metrics, omitted, breakdown = bench.per_layer(result)
    for name, (value, unit) in metrics.items():
        if name not in omitted:
            print(f"{name} = {value:.6g} {unit}")
    if omitted:
        print(f"not measured on this workload (0 in the JSON): {' '.join(omitted)}")
    walls = result["traced"]["walls"]
    print(f"blocking steps, per traced pass of {statistics.median(walls):.3f} s (median); "
          "per-call ms over all traced calls:")
    print(f"  {'span':34} {'layer':10} {'calls':>9} {'total_s':>9} {'self_s':>9} {'self%':>6}"
          f" {'p50_ms':>10}  tail_ms")
    for name, layer, calls, total, self_s, share, t in breakdown:
        row = f"  {name:34} {layer:10} {calls:9.0f} {total:9.3f} {self_s:9.3f} {100 * share:6.1f}"
        if t:
            tail = f"{t['tail']}={1e3 * t[t['tail']]:.4g}" if t["tail"] else "-"
            row += f" {1e3 * t['p50']:10.4g}  {tail} (n={t['n']})"
        print(row)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's outputs as the reference")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_environment()
    import_s = import_library()
    import bench

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}")
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir,
                       import_s=import_s, record=args.record)
    shutil.rmtree(workdir, ignore_errors=True)
    metrics = report(result, bool(args.trace))
    if args.trace:
        path = os.path.join(ROOT, ".bench_work", f"spans-{args.workload}-{args.seed}.jsonl.gz")
        result["tracer"].write(path)
        print(f"spans: {path}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
