"""Span tracing of the package's layers, installed from outside.

``Tracer.install`` replaces public functions of the ``xcsf``, ``kernels``,
``metrics``, ``checkpoint``, ``data`` and ``neural`` modules with timing
wrappers via ``setattr``.  Calls between functions of one module go through
the module's globals, so they are traced too.  Spans (name, start, end,
parent) are kept in memory; self time is a span's duration minus the
durations of its direct children (calls are single-threaded and nested).
"""

from __future__ import annotations

import gzip
import json
import os
from collections import defaultdict
from time import perf_counter

# (module, function) pairs that get a span, in report order
TRACED = (
    ("data", "load_dataset"),
    ("xcsf", "init_population"),
    ("xcsf", "run_trial"),
    ("xcsf", "build_match_set"),
    ("xcsf", "cover"),
    ("kernels", "match_batch"),
    ("xcsf", "reinforce"),
    ("kernels", "reinforce_batch"),
    ("xcsf", "maybe_run_ea"),
    ("xcsf", "make_offspring"),
    ("xcsf", "enforce_population_limit"),
    ("xcsf", "evaluate"),
    ("metrics", "population_stats"),
    ("checkpoint", "save_population"),
    ("checkpoint", "load_population"),
    ("xcsf", "reconstruct_one"),
    ("xcsf", "system_prediction"),
    ("neural", "forward"),
)

# traced functions that call other traced functions, so self time differs
# from inclusive time
WITH_CHILDREN = ("xcsf.run_trial", "xcsf.build_match_set", "xcsf.cover",
                 "xcsf.reinforce", "xcsf.maybe_run_ea", "xcsf.reconstruct_one",
                 "xcsf.system_prediction")

COUNTERS = (
    ("data.load_dataset.bytes", "B"),
    ("xcsf.match_set.rules", "count"),
    ("xcsf.match_set.frac", "ratio"),
    ("xcsf.cover.calls", "count"),
    ("kernels.match_batch.rules", "count"),
    ("kernels.reinforce_batch.nets", "count"),
    ("kernels.reinforce_batch.weights", "count"),
    ("kernels.reinforce_batch.bytes", "B"),
    ("xcsf.ea.fired", "count"),
    ("xcsf.ea.fire_rate", "ratio"),
    ("xcsf.deletions", "count"),
    ("xcsf.evaluate.rows", "count"),
    ("checkpoint.save_population.bytes", "B"),
    ("neural.forward.calls", "count"),
)

SUMMARY = (("trace.wall_s", "s"), ("trace.untraced_s", "s"),
           ("trace.untraced.share", "ratio"), ("trace.overhead", "ratio"))


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for mod, fn in TRACED:
        name = f"{mod}.{fn}"
        units[f"{name}.s"] = "s"
        units[f"{name}.share"] = "ratio"
        if name in WITH_CHILDREN:
            units[f"{name}.self_s"] = "s"
            units[f"{name}.self_share"] = "ratio"
    units.update(COUNTERS)
    units.update(SUMMARY)
    return units


def _reinforce_batch_counts(counts, args):
    preds, x = args[0], args[1]
    n = len(x)
    hidden = sum(p[1].shape[0] for p in preds)
    counts["kernels.reinforce_batch.nets"] += len(preds)
    # both layers of a net hold n * h weights
    counts["kernels.reinforce_batch.weights"] += 2 * n * hidden
    # per layer with s weights and b biases the fused step reads weights,
    # mask and momentum (17 s bytes) and writes weights and momentum
    # (16 s), and reads and writes biases and bias momentum (32 b); each
    # net also writes one n-wide output row; x is read once per call
    counts["kernels.reinforce_batch.bytes"] += (
        66 * n * hidden + 32 * hidden + 40 * n * len(preds) + 8 * n)


class Tracer:
    """Records spans and counters for one traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._stack = []
        self._restore = []

    def _wrap(self, module, fn_name, before=None, after=None):
        fn = getattr(module, fn_name)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{fn_name}"
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            token = before(args) if before else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after:
                after(args, result, token)
            return result

        setattr(module, fn_name, traced)
        self._restore.append((module, fn_name, fn))

    def install(self, modules: dict) -> None:
        """Wrap every function in ``TRACED``; ``modules`` maps short module
        names to the imported modules."""
        c = self.counts

        def add(key, value=1):
            c[key] += value

        hooks = {
            "data.load_dataset": (None, lambda a, r, t: add(
                "data.load_dataset.bytes", os.path.getsize(a[0]))),
            "xcsf.build_match_set": (None, lambda a, r, t: (
                add("xcsf.match_set.rules", len(r)),
                add("xcsf.match_set.frac", len(r) / len(a[0].members)),
                add("xcsf.build_match_set.calls"))),
            "xcsf.cover": (None, lambda a, r, t: add("xcsf.cover.calls")),
            "kernels.match_batch": (None, lambda a, r, t: add(
                "kernels.match_batch.rules", len(a[0]))),
            "kernels.reinforce_batch": (None, lambda a, r, t: _reinforce_batch_counts(c, a)),
            "xcsf.maybe_run_ea": (None, lambda a, r, t: (
                add("xcsf.ea.fired", int(r)), add("xcsf.maybe_run_ea.calls"))),
            "xcsf.enforce_population_limit": (
                lambda a: a[0].micro_count(),
                lambda a, r, t: add("xcsf.deletions", t - a[0].micro_count())),
            "xcsf.evaluate": (None, lambda a, r, t: add("xcsf.evaluate.rows", a[1].shape[0])),
            "checkpoint.save_population": (None, lambda a, r, t: add(
                "checkpoint.save_population.bytes", os.path.getsize(a[0]))),
            "neural.forward": (None, lambda a, r, t: add("neural.forward.calls")),
        }
        for mod, fn in TRACED:
            before, after = hooks.get(f"{mod}.{fn}", (None, None))
            self._wrap(modules[mod], fn, before, after)

    def uninstall(self) -> None:
        for module, fn_name, fn in reversed(self._restore):
            setattr(module, fn_name, fn)
        self._restore.clear()

    def summary(self) -> dict:
        """Inclusive and self seconds per traced name, the time spent
        outside any span's root, and the raw counters."""
        incl = defaultdict(float)
        child = defaultdict(float)
        root = 0.0
        for name, start, end, parent in self.spans:
            dur = end - start
            incl[name] += dur
            if parent < 0:
                root += dur
            else:
                child[parent] += dur
        self_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child.get(i, 0.0)
        return {"s": dict(incl), "self_s": dict(self_s), "root_s": root,
                "counts": dict(self.counts)}

    def write_spans(self, path) -> None:
        """Gzipped JSON; a traced repeat records tens of thousands of spans."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, f, separators=(",", ":"))


def layer_metrics(summaries: list, traced_wall: list, untraced_tps: float,
                  traced_tps: float) -> dict:
    """Per-layer metrics averaged over traced repeats.

    Times and counts are per repeat (one training run plus its
    reconstruction passes); shares are of the traced wall time.
    """
    reps = len(summaries)
    wall = sum(traced_wall)
    out = {}
    for mod, fn in TRACED:
        name = f"{mod}.{fn}"
        s = sum(sm["s"].get(name, 0.0) for sm in summaries)
        out[f"{name}.s"] = s / reps
        out[f"{name}.share"] = s / wall
        if name in WITH_CHILDREN:
            own = sum(sm["self_s"].get(name, 0.0) for sm in summaries)
            out[f"{name}.self_s"] = own / reps
            out[f"{name}.self_share"] = own / wall

    def total(key):
        return sum(sm["counts"].get(key, 0.0) for sm in summaries)

    for key, _ in COUNTERS:
        out[key] = total(key) / reps
    match_calls = total("xcsf.build_match_set.calls")
    out["xcsf.match_set.rules"] = total("xcsf.match_set.rules") / max(match_calls, 1)
    out["xcsf.match_set.frac"] = total("xcsf.match_set.frac") / max(match_calls, 1)
    out["xcsf.ea.fire_rate"] = total("xcsf.ea.fired") / max(total("xcsf.maybe_run_ea.calls"), 1)
    root = sum(sm["root_s"] for sm in summaries)
    out["trace.wall_s"] = wall / reps
    out["trace.untraced_s"] = (wall - root) / reps
    out["trace.untraced.share"] = (wall - root) / wall
    out["trace.overhead"] = 1.0 - traced_tps / untraced_tps
    return out
