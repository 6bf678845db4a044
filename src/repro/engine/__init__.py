"""Pluggable execution engines: one plan→execute path for every scorer.

``repro.engine`` is the single dispatch point for producing
:class:`~repro.sort.pairwise.SortResult`\\ s and
:class:`~repro.bench.metrics.BenchPoint`\\ s. Engines register by name
(:func:`engine_names` / :func:`create_engine`):

====================  ====================================================
``inline``            in-process, ``scoring="auto"`` routing + memo
``inline-loop``       in-process per-tile reference oracle
``inline-vectorized``  in-process batched scoring, no memo
``inline-memoized``    in-process batched scoring with a pattern memo
``analytic``          closed form (constructed families, O(rounds)/task)
``pool``              warm ``ProcessPoolExecutor`` fan-out
``service``           a running ``repro-mergesort serve`` daemon
====================  ====================================================

All of them are bit-identical wherever their inputs overlap — enforced
by the parametrized ``tests/engine/test_engine_equivalence.py`` suite
against the loop oracle, which is the correctness gate any future
engine inherits by registering.

This ``__init__`` eagerly exposes only the import-light contract
(:mod:`~repro.engine.base`, :mod:`~repro.engine.registry`); the concrete
engines and the work-item machinery load lazily on first attribute
access, so low-level modules (``sort/pairwise``, ``bench/runner``, the
service protocol) can import the registry without cycles.
"""

from repro.engine.base import ExecutionEngine, ExecutionPlan, SortTask
from repro.engine.registry import (
    DEFAULT_SCORING,
    SCORING_MODES,
    SIMULATOR_SCORINGS,
    check_scoring,
    create_engine,
    engine_for_scoring,
    engine_names,
    register_engine,
    resolve_scoring,
    scoring_for_engine,
)

__all__ = [
    "DEFAULT_SCORING",
    "SCORING_MODES",
    "SIMULATOR_SCORINGS",
    "AnalyticExecutionEngine",
    "ExecutionEngine",
    "ExecutionPlan",
    "InlineEngine",
    "PoolEngine",
    "ProgressEvent",
    "ServiceEngine",
    "SortTask",
    "WorkItem",
    "cache_ref",
    "check_scoring",
    "create_engine",
    "engine_for_scoring",
    "engine_names",
    "execute_items",
    "register_engine",
    "resolve_scoring",
    "scoring_for_engine",
    "shared_inline_engine",
    "sweep_items",
]

#: Lazily imported attributes → their defining submodule.
_LAZY = {
    "AnalyticExecutionEngine": "repro.engine.analytic",
    "InlineEngine": "repro.engine.inline",
    "PoolEngine": "repro.engine.pool",
    "ProgressEvent": "repro.engine.tasks",
    "ServiceEngine": "repro.engine.service",
    "WorkItem": "repro.engine.tasks",
    "cache_ref": "repro.engine.tasks",
    "execute_items": "repro.engine.dispatch",
    "shared_inline_engine": "repro.engine.dispatch",
    "sweep_items": "repro.engine.tasks",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.engine' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
