"""In-memory span recorder, library patching and the per-layer metrics.

A traced run wraps the public functions of ``artifact`` at every module
attribute that refers to them (``artifact.simulate.control_mfdp`` as well as
``artifact.control.control_mfdp``), so the calls that ``run_study`` and
``cli.main`` make internally get spans without any change to the library.
Nothing is patched outside a ``with tracing(recorder):`` block.

A span is the tuple ``(id, name, start, end, parent, thread_id, info)``.
Work the tracer itself does after a call (counting the scan grid, say) is
recorded as a sibling span named ``bench.tracer``, so it is excluded from
the parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

TRACER = "bench.tracer"


class SpanRecorder:
    """Collects spans from any thread; spans stay in memory until dumped."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        # Wrapped functions record only while this is set, so checks that
        # call the library between ops leave no spans.
        self.active = False

    def _enter(self) -> tuple[int, int | None, int, list[int]]:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            # A worker thread's first span belongs to whatever the main
            # thread has open (run_study's thread pool, for instance).
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, tid, stack

    @contextmanager
    def span(self, name: str):
        sid, parent, tid, stack = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, tid, None))

    def wrap(self, name: str, fn, info=None, prepare=None):
        """``fn`` recording one span per call that returns.

        ``prepare(args, kwargs) -> (args, kwargs, ctx)`` may substitute the
        arguments before the call; ``info(ctx, args, kwargs, result)``
        returns a dict stored on the span, computed outside its interval.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            ctx = None
            if prepare is not None:
                args, kwargs, ctx = prepare(args, kwargs)
            sid, parent, tid, stack = rec._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            data = None
            if info is not None:
                data = info(ctx, args, kwargs, result)
                rec.spans.append((next(rec._ids), TRACER, end, time.perf_counter(), parent, tid, None))
            rec.spans.append((sid, name, start, end, parent, tid, data))
            return result

        return traced

    def dump(self) -> list[list]:
        """Spans as JSON-ready lists, ordered by start time."""
        return [
            [sid, name, start, end, parent, tid, info]
            for sid, name, start, end, parent, tid, info in sorted(self.spans, key=lambda s: s[2])
        ]


# ---------------------------------------------------------------- targets


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _grid_size(sv) -> int:
    """Size of control_mfdp's scan grid, counted from the statistics.

    {0} plus the distinct positive rejection and mirror cut points, as the
    control module documents them.
    """
    from artifact.core import HypothesisShape

    if sv.shape is HypothesisShape.DIRECTIONAL:
        reject = sv.statistics - sv.margins
        mirror = -reject
    else:
        gap = sv.margins - np.abs(sv.statistics)
        reject = np.minimum(gap, np.min(sv.margins))
        mirror = -gap
    cuts = np.concatenate([reject[reject > 0.0], mirror[mirror > 0.0]])
    return 1 + int(np.unique(cuts).size)


def _control_info(ctx, args, kwargs, result):
    sv = _arg(args, kwargs, 0, "sv")
    return {"m": sv.m, "grid": _grid_size(sv)}


def _count_statistic_fn(args, kwargs):
    calls = [0]
    fn = _arg(args, kwargs, 1, "statistic_fn")

    def counted(x):
        calls[0] += 1
        return fn(x)

    if len(args) > 1:
        args = args[:1] + (counted,) + args[2:]
    else:
        kwargs = {**kwargs, "statistic_fn": counted}
    return args, kwargs, calls


def _sam_info(calls, args, kwargs, result):
    return {"transforms": result.n_transforms, "fn_calls": calls[0]}


def _study_replicates(study) -> int:
    return len(list(study.cells())) * study.replicates


# (module, attribute or Class.attribute, layer, info, prepare)
TARGETS = (
    ("cli", "main", "cli.main", None, None),
    ("stats", "read_data_csv", "stats.read_data_csv",
     lambda c, a, k, r: {"cells": int(r.values.size)}, None),
    ("stats", "read_statistics_csv", "stats.read_statistics_csv",
     lambda c, a, k, r: {"rows": int(r[0].size)}, None),
    ("stats", "welch_t_statistics", "stats.welch_t_statistics", None, None),
    ("core", "StatisticVector.__post_init__", "core.StatisticVector", None, None),
    ("core", "build_profile", "core.build_profile", None, None),
    ("estimators", "estimate_directional", "estimators.estimate", None, None),
    ("estimators", "estimate_directional_randomized", "estimators.estimate", None, None),
    ("estimators", "estimate_equivalence", "estimators.estimate", None, None),
    ("estimators", "estimate_equivalence_windowed", "estimators.estimate", None, None),
    ("control", "control_mfdp", "control.control_mfdp", _control_info, None),
    ("control", "directional_pvalues", "control.pvalues", None, None),
    ("control", "equivalence_pvalues", "control.pvalues", None, None),
    ("control", "write_pvalues_csv", "control.write_pvalues_csv", None, None),
    ("baselines", "benjamini_hochberg", "baselines.bh_lr", None, None),
    ("baselines", "lehmann_romano_stepdown", "baselines.bh_lr", None, None),
    ("baselines", "sam_bound", "baselines.sam_bound", _sam_info, _count_statistic_fn),
    ("baselines", "sign_flip_test", "baselines.exact_tests",
     lambda c, a, k, r: {"transforms": int(r.n_transforms)}, None),
    ("baselines", "two_group_permutation_test", "baselines.exact_tests",
     lambda c, a, k, r: {"transforms": int(r.n_transforms)}, None),
    ("ct_oracle", "LocalTestFamily.sam_subset", "ct_oracle.sam_subset", None, None),
    ("ct_oracle", "run_closure", "ct_oracle.run_closure",
     lambda c, a, k, r: {"subsets": (1 << r.m) - 1}, None),
    ("ct_oracle", "ClosureResult.t_alpha", "ct_oracle.t_alpha", None, None),
    ("simulate", "run_study", "simulate.run_study",
     lambda c, a, k, r: {"replicates": _study_replicates(_arg(a, k, 0, "study"))}, None),
    ("simulate", "generate_statistics", "simulate.generate_statistics", None, None),
    ("simulate", "generate", "simulate.generate", None, None),
    ("simulate", "control_coverage", "simulate.control_coverage",
     lambda c, a, k, r: {"replicates": int(r["replicates"])}, None),
)


def _artifact_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "artifact" or name.startswith("artifact."))]


@contextmanager
def tracing(recorder: SpanRecorder):
    """Patch every target for the duration of the block, then restore."""
    undo: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, layer, info, prepare in TARGETS:
            module = importlib.import_module(f"artifact.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(recorder.wrap(layer, raw.__func__, info, prepare))
                else:
                    new = recorder.wrap(layer, raw, info, prepare)
                undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(module, attr)
            wrapped = recorder.wrap(layer, original, info, prepare)
            for mod in _artifact_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
        yield recorder
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)


# ---------------------------------------------------------------- metrics

# name -> unit, in the order they are reported.  "/op" quantities are
# divided by the number of traced ops, which are whole workload cycles, so
# call counts repeat exactly from run to run.
PER_LAYER_UNITS = {
    "cli.main.self_s": "s/op",
    "stats.read_data_csv.s": "s/op",
    "stats.read_data_csv.cells_per_s": "1/s",
    "stats.read_statistics_csv.s": "s/op",
    "stats.read_statistics_csv.rows_per_s": "1/s",
    "stats.welch_t_statistics.s": "s/op",
    "core.StatisticVector.calls": "calls/op",
    "core.StatisticVector.s": "s/op",
    "core.build_profile.calls": "calls/op",
    "core.build_profile.s": "s/op",
    "estimators.estimate.calls": "calls/op",
    "estimators.estimate.s": "s/op",
    "control.control_mfdp.calls": "calls/op",
    "control.control_mfdp.s": "s/op",
    "control.control_mfdp.ns_per_hypothesis": "ns",
    "control.control_mfdp.grid_per_hypothesis": "ratio",
    "control.pvalues.s": "s/op",
    "control.write_pvalues_csv.s": "s/op",
    "baselines.bh_lr.s": "s/op",
    "baselines.sam_bound.s": "s/op",
    "baselines.statistic_fn.calls_per_transform": "ratio",
    "baselines.exact_tests.s": "s/op",
    "baselines.exact_tests.transforms_per_s": "1/s",
    "ct_oracle.sam_subset.s": "s/op",
    "ct_oracle.run_closure.s": "s/op",
    "ct_oracle.run_closure.subsets_per_s": "1/s",
    "ct_oracle.t_alpha.s": "s/op",
    "simulate.run_study.self_s": "s/op",
    "simulate.run_study.parallelism": "ratio",
    "simulate.generate_statistics.calls": "calls/op",
    "simulate.generate_statistics.s": "s/op",
    "simulate.generate.s": "s/op",
    "simulate.control_coverage.s": "s/op",
    "simulate.replicates_per_s": "1/s",
    "bench.tracer.s": "s/op",
    "bench.ops_per_s_untraced": "1/s",
    "bench.ops_per_s_traced": "1/s",
    "bench.trace_overhead_ops_per_s": "1/s",
}


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_time(span: tuple, children: list[tuple]) -> float:
    """Span duration minus the part of it that child spans cover."""
    start, end = span[2], span[3]
    return (end - start) - _covered(start, end, [(c[2], c[3]) for c in children])


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[tuple], n_ops: int) -> dict[str, float]:
    """Per-layer values (without the bench.ops_* entries) from one traced phase."""
    by_layer: dict[str, list[tuple]] = defaultdict(list)
    children: dict[int, list[tuple]] = defaultdict(list)
    for sp in spans:
        by_layer[sp[1]].append(sp)
        if sp[4] is not None:
            children[sp[4]].append(sp)

    def busy(layer: str) -> float:
        return sum(sp[3] - sp[2] for sp in by_layer[layer])

    def per_op(x: float) -> float:
        return x / n_ops

    def info_sum(layer: str, key: str) -> float:
        return float(sum(sp[6][key] for sp in by_layer[layer] if sp[6]))

    def self_sum(layer: str) -> float:
        return sum(self_time(sp, children[sp[0]]) for sp in by_layer[layer])

    study = by_layer["simulate.run_study"]
    study_wall = busy("simulate.run_study")
    study_child = sum(c[3] - c[2] for sp in study for c in children[sp[0]] if c[1] != TRACER)
    replicated = busy("simulate.run_study") + busy("simulate.control_coverage")
    replicates = info_sum("simulate.run_study", "replicates") + info_sum("simulate.control_coverage", "replicates")

    out = {
        "cli.main.self_s": per_op(self_sum("cli.main")),
        "stats.read_data_csv.s": per_op(busy("stats.read_data_csv")),
        "stats.read_data_csv.cells_per_s": _ratio(info_sum("stats.read_data_csv", "cells"), busy("stats.read_data_csv")),
        "stats.read_statistics_csv.s": per_op(busy("stats.read_statistics_csv")),
        "stats.read_statistics_csv.rows_per_s": _ratio(info_sum("stats.read_statistics_csv", "rows"), busy("stats.read_statistics_csv")),
        "stats.welch_t_statistics.s": per_op(busy("stats.welch_t_statistics")),
        "core.StatisticVector.calls": per_op(len(by_layer["core.StatisticVector"])),
        "core.StatisticVector.s": per_op(busy("core.StatisticVector")),
        "core.build_profile.calls": per_op(len(by_layer["core.build_profile"])),
        "core.build_profile.s": per_op(busy("core.build_profile")),
        "estimators.estimate.calls": per_op(len(by_layer["estimators.estimate"])),
        "estimators.estimate.s": per_op(busy("estimators.estimate")),
        "control.control_mfdp.calls": per_op(len(by_layer["control.control_mfdp"])),
        "control.control_mfdp.s": per_op(busy("control.control_mfdp")),
        "control.control_mfdp.ns_per_hypothesis": 1e9 * _ratio(busy("control.control_mfdp"), info_sum("control.control_mfdp", "m")),
        "control.control_mfdp.grid_per_hypothesis": _ratio(info_sum("control.control_mfdp", "grid"), info_sum("control.control_mfdp", "m")),
        "control.pvalues.s": per_op(busy("control.pvalues")),
        "control.write_pvalues_csv.s": per_op(busy("control.write_pvalues_csv")),
        "baselines.bh_lr.s": per_op(busy("baselines.bh_lr")),
        "baselines.sam_bound.s": per_op(busy("baselines.sam_bound")),
        "baselines.statistic_fn.calls_per_transform": _ratio(info_sum("baselines.sam_bound", "fn_calls"), info_sum("baselines.sam_bound", "transforms")),
        "baselines.exact_tests.s": per_op(busy("baselines.exact_tests")),
        "baselines.exact_tests.transforms_per_s": _ratio(info_sum("baselines.exact_tests", "transforms"), busy("baselines.exact_tests")),
        "ct_oracle.sam_subset.s": per_op(busy("ct_oracle.sam_subset")),
        "ct_oracle.run_closure.s": per_op(busy("ct_oracle.run_closure")),
        "ct_oracle.run_closure.subsets_per_s": _ratio(info_sum("ct_oracle.run_closure", "subsets"), busy("ct_oracle.run_closure")),
        "ct_oracle.t_alpha.s": per_op(busy("ct_oracle.t_alpha")),
        "simulate.run_study.self_s": per_op(self_sum("simulate.run_study")),
        "simulate.run_study.parallelism": _ratio(study_child, study_wall),
        "simulate.generate_statistics.calls": per_op(len(by_layer["simulate.generate_statistics"])),
        "simulate.generate_statistics.s": per_op(busy("simulate.generate_statistics")),
        "simulate.generate.s": per_op(busy("simulate.generate")),
        "simulate.control_coverage.s": per_op(busy("simulate.control_coverage")),
        "simulate.replicates_per_s": _ratio(replicates, replicated),
        "bench.tracer.s": per_op(busy(TRACER)),
    }
    return out
