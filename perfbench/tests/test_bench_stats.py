"""Metric arithmetic on synthetic inputs."""

import math

import pytest

import stats
from workloads import WORKLOADS


def test_percentile_needs_ten_samples_beyond():
    assert "p90" not in stats.timing_summary(range(99))
    s = stats.timing_summary(range(1, 101))
    assert s["n"] == 100 and s["p50"] == 50.5 and s["p90"] == 90 and s["tail"] == "p90"
    assert "p99" not in s
    s = stats.timing_summary(range(1, 1000))
    assert s["tail"] == "p90" and "p99" not in s
    s = stats.timing_summary(range(1, 1001))
    assert s["p99"] == 990 and s["tail"] == "p99"
    assert stats.timing_summary(range(1, 10001))["tail"] == "p99.9"


def test_beyond_counts_samples_past_the_rank():
    assert stats.beyond(100, 90) == 10
    assert stats.beyond(99, 90) == 9
    assert stats.beyond(1000, 99) == 10
    assert stats.beyond(999, 99) == 9


def test_empty_and_single_sample_timings():
    assert stats.timing_summary([]) == {"n": 0, "tail": None}
    assert stats.timing_summary([3.0]) == {"n": 1, "tail": None, "p50": 3.0}


def test_failed_frac():
    assert stats.failed_frac(800, 0) == 0.0
    assert stats.failed_frac(800, 100) == 0.125
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0)
    with pytest.raises(ValueError):
        stats.failed_frac(5, 6)


def test_float_comparison_modes():
    assert stats.floats_agree(["0.1", "inf"], [0.1, math.inf], exact=True)
    assert not stats.floats_agree([0.1], [0.1 * (1 + 1e-12)], exact=True)
    assert stats.floats_agree([0.1], [0.1 * (1 + 1e-12)], exact=False)
    assert not stats.floats_agree([0.1], [0.1 * (1 + 1e-8)], exact=False)
    assert not stats.floats_agree([0.1], [0.1, 0.2], exact=False)


def test_sketch_tolerates_only_tiny_relative_changes():
    xs = [(-1) ** i * (i + 0.5) for i in range(1000)]
    ref = stats.sketch(xs)
    assert stats.sketches_agree(stats.sketch([x * (1 + 1e-13) for x in xs]), ref)
    bumped = list(xs)
    bumped[500] *= 1 + 1e-6
    assert not stats.sketches_agree(stats.sketch(bumped), ref)
    assert not stats.sketches_agree(stats.sketch(xs[:-1]), ref)


# -------------------------------------------- failed operation accounting

DESK = {"targets": 3, "shadows": 5, "ops": 11}


def desk_obs(rc=(0, 0, 0), mses=("0.01", "0.02", "0.03")):
    return {"rc": dict(zip(("train_released", "gen_shadows", "attack"), rc)),
            "ref": {"shadows": {"sha256": "a", "sketch": stats.sketch([1.0])},
                    "attack_mse": None if mses is None else list(mses)}}


def test_desk_failures_count_per_operation():
    desk = WORKLOADS["desk_gd_attack"]
    ref = desk_obs()["ref"]
    assert desk.check(DESK, desk_obs(), ref, exact=True) == 0
    assert desk.check(DESK, desk_obs(), None, exact=True) == 0
    # a failed command fails every operation it owns
    assert desk.check(DESK, desk_obs(rc=(3, 0, 0)), ref, True) == 3
    assert desk.check(DESK, desk_obs(rc=(0, 3, 0)), ref, True) == 5
    assert desk.check(DESK, desk_obs(rc=(0, 0, 2), mses=None), ref, True) == 3
    # one attacked target off the reference, one non-finite
    assert desk.check(DESK, desk_obs(mses=("0.01", "0.021", "nan")), ref, True) == 2
    other = desk_obs()
    other["ref"]["shadows"] = {"sha256": "b", "sketch": stats.sketch([1.0 + 1e-12])}
    assert desk.check(DESK, other, ref, exact=True) == 5
    assert desk.check(DESK, other, ref, exact=False) == 0


def test_dp_failures_count_per_sigma():
    dp = WORKLOADS["dp_sweep"]
    state = {"per_sigma_ops": 340, "ops": 680}
    rows = [["0.0", "inf", "0.017", "0.0", "0.88"], ["2.0", "36.5", "0.082", "0.0", "0.54"]]
    ref = {"rows": rows}
    assert dp.check(state, {"rc": 0, "ref": ref}, ref, True) == 0
    changed = {"rows": [rows[0], ["2.0", "36.5", "0.083", "0.0", "0.54"]]}
    assert dp.check(state, {"rc": 0, "ref": changed}, ref, True) == 340
    assert dp.check(state, {"rc": 3, "ref": {"rows": None}}, ref, True) == 680


def test_rero_failures_count_per_cell():
    rero = WORKLOADS["rero_grid"]
    rates = ["0.5"] * 27
    ok = {"rc": 0, "ref": {"rates": rates}, "sound": [True] * 27}
    assert rero.check({}, ok, {"rates": rates}, True) == 0
    bad = {"rc": 1, "ref": {"rates": ["0.6"] + rates[1:]}, "sound": [True] * 26 + [False]}
    assert rero.check({}, bad, {"rates": rates}, True) == 2
    assert rero.check({}, {"rc": 2, "ref": {"rates": []}, "sound": []}, None, True) == 27


def test_glm_gate_and_reference():
    glm = WORKLOADS["glm_closed_form"]
    blob = {"sha256": "a", "sketch": stats.sketch([1.0])}
    obs = {"errors": [1e-10, 2e-6, math.inf, math.nan], "ref": {"points": blob}}
    assert glm.check({"ops": 4}, obs, None, True) == 3
    other = {"points": {"sha256": "b", "sketch": stats.sketch([2.0])}}
    assert glm.check({"ops": 4}, obs, other, True) == 4



def test_pass_times_are_scaled_by_the_probes_around_them():
    import bench
    ref = bench.PROBE_REF_S
    # the host slowed to half speed during pass 2 and stayed there
    plain = {"walls": [1.0, 2.0, 2.0, 1.0],
             "probes": [ref, ref, 2 * ref, 2 * ref, 2 * ref]}
    assert bench.speeds(plain) == pytest.approx([1.0, 2 / 3, 0.5, 0.5])
    result = {"setup_s": 3.0, "peak_rss_mb": 100.0, "items": 300, "plain": plain}
    e2e = bench.end_to_end(result)
    assert e2e["wall_s"][0] == pytest.approx(1.0)  # median of 1, 4/3, 1, 1/2
    assert e2e["ops_per_s"][0] == pytest.approx(300.0)
    assert e2e["setup_s"] == (3.0, "s")
