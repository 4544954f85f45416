"""Benchmark-side tracing of the stabletree layers.

The program has no tracing of its own, so the traced sample wraps the
program's functions from outside.  Modules bind each other's functions with
``from .x import y``, so a wrapper is installed under every name that refers
to the original function, in every loaded ``stabletree`` module: patching
``stabletree.fields.multiply`` and ``stabletree.free_group.multiply`` alike.

Spans are kept in memory as ``[name, start, end, parent]`` and written out
when the sample ends; :func:`layer_metrics` computes self times from them.
Hot calls (``membership``, ``multiply``, ``word_to_index``, ...) get
counters instead of spans, and their time falls into the caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import statistics
import sys
import time
from collections import Counter

SPAN, COUNT, YIELDS = "span", "count", "yields"

# (module, attribute, trace name, kind).  A dotted attribute is a method.
TARGETS = (
    ("stabletree.harness", "run", "harness.run", SPAN),
    ("stabletree.free_group", "ball_layout", "free_group.ball_layout", SPAN),
    ("stabletree.free_group", "BallLayout._build_arrays", "free_group.build_arrays", SPAN),
    ("stabletree.free_group", "BallLayout.word_to_index", "free_group.word_to_index", COUNT),
    ("stabletree.free_group", "multiply", "free_group.multiply", COUNT),
    ("stabletree.free_group", "enumerate_ball", "free_group.enumerate_ball", YIELDS),
    ("stabletree.fields", "FieldSimulator.__init__", "fields.plan", SPAN),
    ("stabletree.fields", "FieldSimulator.values", "fields.draw", SPAN),
    ("stabletree.fields", "maxima_experiment", "fields.maxima_experiment", SPAN),
    ("stabletree.stable", "sample_sas", "stable.sample_sas", SPAN),
    ("stabletree.rng", "substream", "rng.substream", SPAN),
    ("stabletree.subgraphs", "membership", "subgraphs.membership", COUNT),
    ("stabletree.subgraphs", "enumerate_ray_paths", "subgraphs.enumerate_ray_paths", YIELDS),
    ("stabletree.subgraphs", "sample_ray_path", "subgraphs.sample_ray_path", SPAN),
    ("stabletree.subgraphs", "sample_anchor", "subgraphs.sample_anchor", COUNT),
    ("stabletree.limit_process", "maxima_constant_comparison", "limit_process.comparison", SPAN),
    ("stabletree.limit_process", "maxima_constant", "limit_process.maxima_constant", SPAN),
    ("stabletree.limit_process", "level_sum", "limit_process.level_sum", SPAN),
    ("stabletree.limit_process", "exact_restriction_classes", "limit_process.exact_classes", SPAN),
    ("stabletree.limit_process", "_exact_enumeration_feasible", "limit_process.feasible", COUNT),
    ("stabletree.limit_process", "maxima_constant_level_symmetric",
     "limit_process.level_symmetric", SPAN),
    ("stabletree.limit_process", "sample_limit_point_process", "limit_process.sample", SPAN),
)
# Every public function of these modules is a span named "<layer>.<function>".
SPAN_ALL_PUBLIC = ("stabletree.stats",)


def _size(size) -> int:
    if size is None:
        return 1
    return math.prod(size) if isinstance(size, tuple) else int(size)


def _observe_plan(args, kwargs, result):
    from stabletree.fields import scaling_constant

    sim = args[0]
    bound = sim.meta.get("remainder_bound")
    ratio = 0.0 if bound is None else bound / scaling_constant(sim.model, sim.n)
    return {"stable.num_terms": sim.num_terms or 0, "stable.remainder_ratio": ratio}


# Values read from a call's arguments or result: trace name -> fn(args, kwargs, result)
# returning {counter: value}.  Counters add up, except gauges, which keep the last value.
OBSERVERS = {
    "fields.plan": _observe_plan,
    "stable.sample_sas": lambda a, k, r: {
        "stable.sample_sas_values": _size(k.get("size", a[3] if len(a) > 3 else None))
    },
    "limit_process.exact_classes": lambda a, k, r: {"limit_process.classes": len(r)},
    "limit_process.feasible": lambda a, k, r: {"limit_process.mc_levels": int(not r)},
    "limit_process.sample": lambda a, k, r: {"limit_process.atoms": len(r)},
    "harness.run": lambda a, k, r: {"harness.records": len(r.records)},
}
GAUGES = {"stable.num_terms", "stable.remainder_ratio", "harness.records"}


class Tracer:
    """Installs the wrappers, records spans and counters, and removes them again."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = [-1]
        self._undo = []
        self.missing = []  # targets the program no longer has; their metrics read 0

    # -- recording -----------------------------------------------------------

    def _record(self, name, value):
        if name in GAUGES:
            self.counts[name] = value
        else:
            self.counts[name] += value

    def _wrap(self, name, kind, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        observe = OBSERVERS.get(name)

        def finish(args, kwargs, result):
            for key, value in observe(args, kwargs, result).items():
                self._record(key, value)

        if kind == YIELDS:
            def counted(items):
                for item in items:
                    counts[name] += 1
                    yield item

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if inspect.isgenerator(result):
                    return counted(result)
                counts[name] += len(result)
                return result
        elif kind == COUNT:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                if observe is not None:
                    finish(args, kwargs, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec = [name, clock(), 0.0, stack[-1]]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    rec[2] = clock()
                if observe is not None:
                    finish(args, kwargs, result)
                return result
        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the benchmark's own code."""
        rec = [name, time.perf_counter(), 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    # -- installing ----------------------------------------------------------

    def _targets(self):
        yield from TARGETS
        for modname in SPAN_ALL_PUBLIC:
            mod = importlib.import_module(modname)
            layer = modname.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == modname and not attr.startswith("_"):
                    yield modname, attr, f"{layer}.{attr}", SPAN

    def install(self):
        targets = list(self._targets())
        for modname, _, _, _ in targets:
            importlib.import_module(modname)
        program = [m for n, m in sys.modules.items() if n == "stabletree" or n.startswith("stabletree.")]
        for modname, attr, name, kind in targets:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                original = vars(getattr(owner, cls_name, object)).get(meth)
                if original is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                self._patch(getattr(owner, cls_name), meth, original, self._wrap(name, kind, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(name, kind, original)
            for mod in program:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "missing": self.missing}


# ---------------------------------------------------------------------------
# Per-layer metrics from a written-out trace
# ---------------------------------------------------------------------------

def _aggregate(spans):
    """{name: [calls, inclusive s, self s, [durations]]} from [name, start, end, parent]."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    agg = {}
    for i, (name, start, end, _) in enumerate(spans):
        a = agg.setdefault(name, [0, 0.0, 0.0, []])
        a[0] += 1
        a[1] += end - start
        a[2] += end - start - child[i]
        a[3].append(end - start)
    return agg


def _quantile_ms(durations, q):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(trace: dict, run_s: float, csv_bytes: int) -> dict:
    """Per-layer metrics of one traced sample; 0 where a layer was not reached."""
    spans, counts = trace["spans"], Counter(trace["counts"])
    agg = _aggregate(spans)

    def calls(name):
        return agg[name][0] if name in agg else 0

    def self_s(*names):
        return sum(agg[n][2] for n in names if n in agg)

    def layer_s(layer):
        return sum(a[2] for n, a in agg.items() if n.split(".", 1)[0] == layer)

    stats_names = [n for n in agg if n.startswith("stats.")]
    draws = agg.get("fields.draw", [0, 0.0, 0.0, []])[3]
    sample_idx = {i for i, s in enumerate(spans) if s[0] == "limit_process.sample"}
    sampled_paths = sum(
        1 for s in spans if s[0] == "subgraphs.sample_ray_path" and s[3] in sample_idx
    )
    paths = counts["subgraphs.enumerate_ray_paths"]
    m = {
        "free_group.layout_s": self_s("free_group.ball_layout", "free_group.build_arrays"),
        "free_group.word_to_index_calls": counts["free_group.word_to_index"],
        "free_group.multiply_calls": counts["free_group.multiply"],
        "free_group.enumerate_ball_words": counts["free_group.enumerate_ball"],
        "fields.plan_s": self_s("fields.plan"),
        "fields.draw_s": self_s("fields.draw"),
        "fields.draw_calls": calls("fields.draw"),
        "fields.draw_ms_p50": _quantile_ms(draws, 50),
        "fields.draw_ms_p90": _quantile_ms(draws, 90),
        "fields.reduce_s": self_s("fields.maxima_experiment"),
        "stable.sample_sas_s": self_s("stable.sample_sas"),
        "stable.sample_sas_values": counts["stable.sample_sas_values"],
        "stable.num_terms": counts["stable.num_terms"],
        "stable.remainder_ratio": counts["stable.remainder_ratio"],
        "rng.substream_calls": calls("rng.substream"),
        "rng.substream_s": self_s("rng.substream"),
        "stats.calls": sum(calls(n) for n in stats_names),
        "stats.s": self_s(*stats_names),
        "subgraphs.membership_calls": counts["subgraphs.membership"],
        "subgraphs.ray_paths_enumerated": paths,
        "subgraphs.sample_ray_path_calls": calls("subgraphs.sample_ray_path"),
        "subgraphs.sample_ray_path_s": self_s("subgraphs.sample_ray_path"),
        "subgraphs.sample_anchor_calls": counts["subgraphs.sample_anchor"],
        "limit_process.level_sum_s": self_s("limit_process.level_sum"),
        "limit_process.exact_classes_s": self_s("limit_process.exact_classes"),
        "limit_process.classes": counts["limit_process.classes"],
        "limit_process.class_ratio": counts["limit_process.classes"] / paths if paths else 0.0,
        "limit_process.mc_levels": counts["limit_process.mc_levels"],
        "limit_process.level_symmetric_s": self_s("limit_process.level_symmetric"),
        "limit_process.sample_s": self_s("limit_process.sample"),
        "limit_process.atoms_per_path": (
            counts["limit_process.atoms"] / sampled_paths if sampled_paths else 0.0
        ),
        "harness.self_s": self_s("harness.run"),
        "harness.emit_s": self_s("harness.emit"),
        "harness.records": counts["harness.records"],
        "harness.csv_bytes": csv_bytes,
    }
    layers = sorted({n.split(".", 1)[0] for n in m})
    for layer in layers:
        m[f"{layer}.layer_s"] = layer_s(layer)
    m["trace.run_s"] = run_s
    m["trace.accounted_share"] = sum(m[f"{layer}.layer_s"] for layer in layers) / run_s
    return m
