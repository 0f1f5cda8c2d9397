"""Spans around the library's public functions, recorded from outside it.

A Tracer replaces module and class attributes with timing wrappers, at the
name each caller looks up (``cli`` imports ``save_model`` by name, so that
is patched as ``reconlab.cli.save_model``; ``nn.train`` looks up
``loss_and_grad`` as a module global, so ``nn.loss_and_grad`` is patched).
Spans stay in memory as tuples and are written out when the run ends. Calls
made inside worker processes are not seen; the enclosing span still is.
"""

from __future__ import annotations

import contextlib
import gzip
import inspect
import json
import math
import os
import time
from collections import defaultdict

# Fields of a span tuple.
NAME, LAYER, START, END, PARENT, RUN, COUNT = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = []
        self._patches = []

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        idx, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, layer, t0, t1, parent, self.run_id, None)

    def wrap(self, fn, layer: str, name, count=None):
        """Wrap fn in a span. name is a string or name(args, kwargs); count,
        if given, is count(args, kwargs, result) and is stored on the span."""
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx, parent = tracer._open()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                label = name if isinstance(name, str) else name(args, kwargs)
                tracer.spans[idx] = (label, layer, t0, t1, parent, tracer.run_id, None)
            if count is not None:
                tracer.spans[idx] = tracer.spans[idx][:COUNT] + (count(args, kwargs, result),)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """Patch each (owner, attribute, layer, name, count) target."""
        for owner, attr, layer, name, count in targets:
            static = inspect.getattr_static(owner, attr)
            fn = static.__func__ if isinstance(static, staticmethod) else static
            traced = self.wrap(fn, layer, name, count)
            setattr(owner, attr, staticmethod(traced) if isinstance(static, staticmethod) else traced)
            self._patches.append((owner, attr, static))

    def uninstall(self):
        for owner, attr, static in reversed(self._patches):
            setattr(owner, attr, static)
        self._patches.clear()

    def write(self, path: str):
        with gzip.open(path, "wt") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


# ----------------------------------------------------- library wrap points

def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def library_targets():
    """Every wrapped entry point as (owner, attribute, layer, span name, count)."""
    from reconlab import accounting, cli, data, glm, metrics, nn, rero, rng, shadow

    def train_name(args, kwargs):
        config = args[2] if len(args) > 2 else kwargs["config"]
        return "nn.train.dp" if config.optimizer == "dpgd" else "nn.train.gd"

    def reconn_steps(args, kwargs, result):
        config = args[1] if len(args) > 1 else kwargs.get("config", shadow.RecoNNConfig())
        return config.epochs * math.ceil(len(args[0]) / config.batch_size)

    def shadowset_bytes(args, kwargs, result):
        prefix = args[1]
        return _file_bytes(prefix + ".header", prefix + ".bin", prefix + ".probe.bin")

    targets = [
        (cli, "load_profile", "cli", "cli.load_profile", None),
        (cli, "save_model", "persist", "persist.save_model",
         lambda a, k, r: _file_bytes(a[0])),
        (cli, "load_model", "persist", "persist.load_model", None),
        (cli, "write_csv", "persist", "persist.write_csv",
         lambda a, k, r: _file_bytes(a[0])),
        (data, "save_csv", "persist", "data.save_csv", lambda a, k, r: _file_bytes(a[1])),
        (data, "load_csv", "persist", "data.load_csv", None),
        (shadow.ShadowSet, "save", "persist", "shadow.ShadowSet.save", shadowset_bytes),
        (shadow.ShadowSet, "load", "persist", "shadow.ShadowSet.load", None),
        (data, "synth_classification", "data", "data.synth_classification", None),
        (data, "split", "data", "data.split", None),
        (nn, "train", "nn", train_name, None),
        (nn, "loss_and_grad", "nn", "nn.loss_and_grad", None),
        (nn, "per_example_grads", "nn", "nn.per_example_grads", None),
        (nn, "clip_rows", "nn", "nn.clip_rows", None),
        (shadow, "gen_shadow_models", "shadow", "shadow.gen_shadow_models",
         lambda a, k, r: len(r)),
        (shadow, "build_shadow_set", "shadow", "shadow.build_shadow_set", None),
        (shadow, "train_reconn", "shadow", "shadow.train_reconn", reconn_steps),
        (shadow, "attack", "shadow", "shadow.attack", None),
        (metrics, "oracle_report", "metrics", "metrics.oracle_report", None),
        (rero, "empirical_rero", "rero", "rero.empirical_rero", None),
        (rero, "map_attack_finite", "rero", "rero.map_attack_finite", None),
        (rero, "kappa_monte_carlo", "rero", "rero.kappa_monte_carlo", None),
        (rng.Rng, "child", "rng", "rng.Rng.child", None),
        (glm, "fit_glm", "glm", "glm.fit_glm", None),
        (glm, "reconstruct_glm", "glm", "glm.reconstruct_glm", None),
    ]
    targets += [(accounting, f, "accounting", f"accounting.{f}", None)
                for f in accounting.__all__]
    return targets


# ------------------------------------------------------------- analysis

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [s[END] - s[START] - _covered(children[i], s[START], s[END])
            for i, s in enumerate(spans)]


def summarize(spans) -> dict:
    """Per span name: layer, call durations, self time and summed counts."""
    out = {}
    for s, self_s in zip(spans, self_times(spans)):
        e = out.get(s[NAME])
        if e is None:
            e = out[s[NAME]] = {"layer": s[LAYER], "durations": [], "self_s": 0.0, "count": 0}
        e["durations"].append(s[END] - s[START])
        e["self_s"] += self_s
        if s[COUNT] is not None:
            e["count"] += s[COUNT]
    return out
