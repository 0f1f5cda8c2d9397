"""Span recording, wrapping and self-time subtraction."""

import types

import pytest

import spans


def span(name, start, end, parent, layer="x"):
    return (name, layer, start, end, parent, 1, None)


def test_self_time_subtracts_direct_children_only():
    recorded = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.inner", 2.0, 3.0, 1),
        span("b", 5.0, 6.0, 0),
    ]
    assert spans.self_times(recorded) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    recorded = [
        span("root", 0.0, 10.0, -1),
        span("c1", 1.0, 5.0, 0),
        span("c2", 3.0, 7.0, 0),    # overlaps c1
        span("c3", 9.0, 12.0, 0),   # runs past its parent
    ]
    assert spans.self_times(recorded)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summarize_groups_by_name():
    recorded = [
        span("root", 0.0, 10.0, -1, "cli"),
        span("leaf", 1.0, 2.0, 0, "nn"),
        span("leaf", 3.0, 5.0, 0, "nn"),
    ]
    summary = spans.summarize(recorded)
    assert summary["leaf"]["durations"] == [1.0, 2.0]
    assert summary["leaf"]["layer"] == "nn"
    assert summary["root"]["self_s"] == pytest.approx(7.0)


def test_wrap_links_parents_and_counts():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda x: x * 2, "nn", "inner", count=lambda a, k, r: r)
    outer = tracer.wrap(lambda x: inner(x) + inner(x), "cli", lambda a, k: f"outer.{a[0]}")
    with tracer.span("pass", "bench"):
        assert outer(3) == 12
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["pass", "outer.3", "inner", "inner"]
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 1, 1]
    assert tracer.spans[2][spans.COUNT] == 6


def test_wrap_records_the_span_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "nn", "boom")()
    assert tracer.spans[0][spans.NAME] == "boom" and tracer._stack == []


def test_install_patches_and_restores_functions_methods_and_staticmethods():
    class Box:
        def method(self, v):
            return v + 1

        @staticmethod
        def static(v):
            return v - 1

    mod = types.SimpleNamespace(fn=lambda v: v * 10)
    originals = (mod.fn, Box.__dict__["method"], Box.__dict__["static"])
    tracer = spans.Tracer()
    tracer.install([(mod, "fn", "m", "mod.fn", None),
                    (Box, "method", "b", "Box.method", None),
                    (Box, "static", "b", "Box.static", None)])
    assert (mod.fn(2), Box().method(2), Box.static(2)) == (20, 3, 1)
    assert [s[spans.NAME] for s in tracer.spans] == ["mod.fn", "Box.method", "Box.static"]
    tracer.uninstall()
    assert (mod.fn, Box.__dict__["method"], Box.__dict__["static"]) == originals


def test_library_targets_exist():
    for owner, attr, layer, name, count in spans.library_targets():
        assert callable(getattr(owner, attr)), (owner, attr)
