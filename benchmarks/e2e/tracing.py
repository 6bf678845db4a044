"""Span tracing around the simulator's layers, installed from outside it.

:class:`Tracer` replaces each traced public function at *every* module
attribute (and class attribute) that binds it — both
``repro.mergepath.partition.partition_many_with_trace`` and the copy
``repro.sort.pairwise`` imported — with a wrapper that records one span
per call: ``(id, name, start_ns, end_ns, parent, op)``. Parents come from
a per-thread stack; ``op`` is the benchmark op the calling thread is
running (``None`` inside the daemon, which never sees op ids). Spans stay
in memory until :meth:`Tracer.write`. :meth:`Tracer.restore` puts every
original back, including bindings made by modules imported while the
tracer was installed.

The span name's prefix before the first ``.`` is its layer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: Module-level functions: (defining module, attribute, span name).
FUNCTIONS = (
    ("repro.mergepath.partition", "partition_many_with_trace", "mergepath.partition"),
    ("repro.mergepath.fused", "merge_pairs", "mergepath.native"),
    ("repro.mergepath.fused", "fused_block_reports", "mergepath.native"),
    ("repro.mergepath.fused", "fused_global_reports", "mergepath.native"),
    ("repro.dmm.conflicts", "count_conflicts", "dmm.score"),
    ("repro.dmm.conflicts", "report_segments", "dmm.score"),
    ("repro.dmm.fused", "permutation_stage_report", "dmm.score"),
    ("repro.dmm.fused", "dense_report", "dmm.score"),
    ("repro.adversary.permutation", "worst_case_permutation", "adversary.construct"),
    ("repro.adversary.permutation", "unmerge_through_rounds", "adversary.unmerge"),
    ("repro.adversary.assignment", "construct_warp_assignment", "adversary.assignment"),
    ("repro.adversary.family", "random_family_member", "adversary.assignment"),
    ("repro.adversary.verify", "verify_worst_case", "adversary.verify"),
    ("repro.inputs.generators", "generate", "inputs.generate"),
    ("repro.sort.serialize", "array_to_obj", "service.encode"),
    ("repro.sort.serialize", "result_to_obj", "service.encode"),
    ("repro.service.protocol", "point_to_obj", "service.encode"),
    ("repro.sort.serialize", "array_from_obj", "service.decode"),
    ("repro.sort.serialize", "result_from_obj", "service.decode"),
    ("repro.service.protocol", "point_from_obj", "service.decode"),
)

#: Methods: (module, class, attribute, span name). A callable name is
#: computed from the call's arguments; sorts are split by scoring path.
METHODS = (
    ("repro.sort.pairwise", "PairwiseMergeSort", "sort", lambda args: f"sort.{args[0].scoring}"),
    ("repro.analytic.engine", "AnalyticEngine", "sort_result", "analytic.sort_result"),
    ("repro.bench.runner", "SweepRunner", "run_point", "bench.point"),
    ("repro.bench.runner", "SweepRunner", "_instrumented_sort", "bench.instrumented_sort"),
    ("repro.bench.runner", "CalibratedRates", "from_result", "bench.calibration"),
    ("repro.engine.base", "ExecutionEngine", "run_sort", "service.compute"),
    ("repro.engine.base", "ExecutionEngine", "run_points", "service.compute"),
)

#: Span names whose results feed the memo and fidelity counters.
_RESULT_SPANS = ("sort.", "analytic.")

#: Ops whose sorts define ``dmm.replays_per_element``: a fixed plan prefix,
#: so the sentinel does not depend on how many ops a run fits.
SENTINEL_OPS = 16

#: Modules imported before scanning, so every binding site exists. The
#: mitigation backends register lazily; their classes must exist to be
#: wrapped.
_PRELOAD = (
    "repro",
    "repro.cli",
    "repro.engine.inline",
    "repro.service.client",
    "repro.service.server",
    "repro.mitigation.none",
    "repro.mitigation.padding",
    "repro.mitigation.cfree_sort",
    "repro.mitigation.cfree_permute",
)

_MARK = "__e2e_span__"


class Tracer:
    """Records spans from wrappers it installs; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}
        self.memo_hits = 0
        self.memo_misses = 0
        self.fidelity = [0.0, 0]  # replays, elements over SENTINEL_OPS ops

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def op_span(self, op_id: int):
        """Context manager marking the calling thread's work as op ``op_id``."""
        return _OpSpan(self, op_id)

    def note_fidelity(self, op_id, replays: float, elements: int) -> None:
        """Count one result toward the fixed-prefix replays sentinel."""
        if op_id is not None and op_id < SENTINEL_OPS:
            self.fidelity[0] += float(replays)
            self.fidelity[1] += int(elements)

    def _record(self, fn, name):
        tracer = self
        observe = callable(name) or name.startswith(_RESULT_SPANS)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            outer = observe and not any(s[1] for s in stack)
            stack.append((span_id, observe))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(
                    (span_id, label, start, end, parent, getattr(tracer._local, "op", None))
                )
            if outer:
                tracer._observe(result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _observe(self, result) -> None:
        memo = getattr(result, "memo_stats", None)
        if memo is not None:
            self.memo_hits += memo.hits
            self.memo_misses += memo.misses
        self.note_fidelity(
            getattr(self._local, "op", None), result.total_replays(), result.num_elements
        )

    # -- install / restore ---------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every traced function at each binding site."""
        for module in _PRELOAD + tuple(m for m, *_ in FUNCTIONS + METHODS):
            importlib.import_module(module)
        targets: dict[int, object] = {}
        for module, attr, name in FUNCTIONS:
            fn = getattr(sys.modules[module], attr)
            wrapper = targets[id(fn)] = self._record(fn, name)
            self._originals[id(wrapper)] = (wrapper, fn)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None or module is sys.modules.get(__name__):
                continue
            for attr, value in list(namespace.items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper, value)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            self._wrap_method(cls, attr, name)
        from repro.mitigation.base import Mitigation

        for cls in _subclasses(Mitigation):
            if "remap" in vars(cls):
                self._wrap_method(cls, "remap", "mitigation.remap")
        return self

    def _wrap_method(self, cls, attr: str, name) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._record(raw.__func__, name))
        else:
            wrapped = self._record(raw, name)
        self._patch(cls, attr, wrapped, raw)

    def _patch(self, owner, attr: str, wrapper, original) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original back, then unwrap any binding made meanwhile."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for attr, value in list(namespace.items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "op")


class _OpSpan:
    def __init__(self, tracer: Tracer, op_id: int):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        local = self.tracer._local
        local.op = self.op_id
        self.id = next(self.tracer._ids)
        self.tracer._stack().append((self.id, False))
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.id, "op", self.start, end, None, self.op_id))
        self.tracer._local.op = None
        return False


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def remaining_wrappers() -> list[str]:
    """Every module or class attribute still bound to a tracing wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        namespace = getattr(module, "__dict__", None)
        if namespace is None:
            continue
        for attr, value in list(namespace.items()):
            if getattr(value, _MARK, False):
                found.append(f"{name}.{attr}")
            elif isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in list(vars(value).items()):
                    inner = getattr(cvalue, "__func__", cvalue)
                    if getattr(inner, _MARK, False):
                        found.append(f"{name}.{attr}.{cattr}")
    return found


def read_spans(path) -> list[tuple]:
    """Load a span file written by :meth:`Tracer.write`."""
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)[f] for f in SPAN_FIELDS) for line in fh if line.strip()]


# -- analysis --------------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> dict[int, int]:
    """Span id → duration minus the part of it its children cover (ns)."""
    children: dict[object, list] = defaultdict(list)
    for span in spans:
        children[span[4]].append(span)
    result = {}
    for span_id, _, start, end, _, _ in spans:
        covered, cursor = 0, start
        for _, _, c_start, c_end, _, _ in sorted(children.get(span_id, ()), key=lambda s: s[2]):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = end - start - covered
    return result


def _outermost(spans, key) -> list[tuple]:
    """Spans with no ancestor sharing ``key(name)`` — their durations sum
    to busy time without counting nested calls twice."""
    by_id = {s[0]: s for s in spans}
    picked = []
    for span in spans:
        mine, parent = key(span[1]), span[4]
        while parent is not None and parent in by_id:
            if key(by_id[parent][1]) == mine:
                break
            parent = by_id[parent][4]
        else:
            picked.append(span)
    return picked


def op_spans(spans) -> list[tuple]:
    """The caller's spans recorded inside timed ops (not input
    preparation, output checks or the warm-up)."""
    return [s for s in spans if s[5] is not None]


def in_window(spans, window) -> list[tuple]:
    """Spans that started inside ``window`` (``perf_counter_ns`` bounds;
    the clock is system-wide, so the daemon's spans compare directly)."""
    lo, hi = window
    return [s for s in spans if lo <= s[2] <= hi]


LAYERS = ("sort", "mergepath", "dmm", "mitigation", "adversary", "inputs", "analytic", "bench", "service")


def layer_metrics(spans, daemon_spans=()) -> dict[str, float]:
    """Per-layer busy time, self time and call counts.

    ``spans`` are the caller process's spans, ``daemon_spans`` the
    daemon's; they come from different processes, so nesting is resolved
    within each list and the sums are added.
    """
    busy_layer: dict[str, float] = defaultdict(float)
    busy_name: dict[str, float] = defaultdict(float)
    self_layer: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for group in (spans, daemon_spans):
        selfs = self_times(group)
        for span in group:
            calls[span[1]] += 1
            self_layer[layer_of(span[1])] += selfs[span[0]] / 1e9
        for span in _outermost(group, layer_of):
            busy_layer[layer_of(span[1])] += (span[3] - span[2]) / 1e9
        for span in _outermost(group, lambda n: n):
            busy_name[span[1]] += (span[3] - span[2]) / 1e9

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = busy_layer[layer]
        metrics[f"{layer}.self_s"] = self_layer[layer]
    for scoring in ("vectorized", "fused", "loop", "analytic"):
        metrics[f"sort.calls.{scoring}"] = calls[f"sort.{scoring}"]
    metrics["mergepath.partition_s"] = busy_name["mergepath.partition"]
    metrics["mergepath.partition_calls"] = calls["mergepath.partition"]
    metrics["mergepath.native_s"] = busy_name["mergepath.native"]
    metrics["dmm.score_s"] = busy_name["dmm.score"]
    metrics["dmm.score_calls"] = calls["dmm.score"]
    metrics["mitigation.remap_s"] = busy_name["mitigation.remap"]
    metrics["mitigation.remap_calls"] = calls["mitigation.remap"]
    for part in ("construct", "unmerge", "assignment", "verify"):
        metrics[f"adversary.{part}_s"] = busy_name[f"adversary.{part}"]
    metrics["inputs.generate_s"] = busy_name["inputs.generate"]
    metrics["inputs.generate_calls"] = calls["inputs.generate"]
    metrics["analytic.calls"] = calls["analytic.sort_result"]
    metrics["bench.point_s"] = busy_name["bench.point"]
    metrics["bench.points"] = calls["bench.point"]
    metrics["bench.calibrations"] = calls["bench.calibration"]
    metrics["bench.instrumented_sorts"] = calls["bench.instrumented_sort"]
    metrics["service.encode_s"] = busy_name["service.encode"]
    metrics["service.decode_s"] = busy_name["service.decode"]
    # The daemon's work is every span it records outside any other span
    # (engine runs, input generation, construction), minus encoding.
    metrics["service.compute_s"] = sum(
        ((s[3] - s[2]) / 1e9 for s in daemon_spans if s[4] is None and s[1] != "service.encode"), 0.0
    )
    return metrics
