"""Toy-size runs of every workload, traced, through the benchmark's own loop."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import bench

EXERCISED = {
    "desk_gd_attack": ("nn.train.gd.calls", "persist.save_model.calls", "cli.load_profile.calls"),
    "dp_sweep": ("nn.train.dp.calls", "nn.per_example_grads.calls", "accounting.calls"),
    "rero_grid": ("rero.map_attack_finite.calls", "rng.Rng.child.calls", "cli.rero_check.s"),
    "glm_closed_form": ("glm.fit_glm.calls", "glm.reconstruct_glm.us_p50", "glm.self_s"),
}
MARGINS = {
    "desk_gd_attack": {"attack_margin"},
    "dp_sweep": {"attack_margin", "dp_margin"},
    "rero_grid": {"rero_min_slack"},
    "glm_closed_form": {"glm_max_abs_err"},
}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_toy_run(workload, tmp_path):
    result = bench.run(workload, seed=3, seconds=0.1, traced=True,
                       workdir=str(tmp_path), toy=True)
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert result["plain"]["walls"] and result["traced"]["walls"]
    assert set(result["plain"]["obs"]["margins"]) == MARGINS[workload]

    e2e = bench.end_to_end(result)
    assert set(e2e) == {"setup_s", "wall_s", "ops_per_s", "peak_rss_mb"}
    assert all(value > 0 for value, _ in e2e.values())

    metrics, omitted, breakdown = bench.per_layer(result)
    assert list(metrics) == bench.PER_LAYER
    for name in EXERCISED[workload]:
        assert metrics[name][0] > 0 and name not in omitted, name
    assert breakdown[-1][0] == "(outside any span)"


def test_refuses_to_run_without_the_library(tmp_path):
    """A directory holding only the benchmark must fail without a result."""
    here = os.path.dirname(bench.__file__)
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("tests", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "glm_closed_form", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "cannot import reconlab" in out.stderr
    for line in out.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_benchmark_json_names_every_metric():
    root = os.path.dirname(os.path.dirname(bench.__file__))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (m, bench.unit_of(m)) for m in bench.PER_LAYER]
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "wall_s", "ops_per_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == [
        "desk_gd_attack", "dp_sweep", "rero_grid", "glm_closed_form"]
