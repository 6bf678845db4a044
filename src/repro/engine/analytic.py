"""Closed-form execution: the :mod:`repro.analytic` engine as a backend.

A thin adapter — an :class:`~repro.engine.inline.InlineEngine` pinned to
``scoring="analytic"``, registered as ``"analytic"``. Sort plans go
through ``PairwiseMergeSort(scoring="analytic")`` (which owns the
per-config :class:`~repro.analytic.AnalyticEngine` caches), so repeated
tasks on one engine instance reuse class/round/stats tables exactly like
the service daemon's warm sorters. Point plans execute items by their
own ``scoring`` field like every engine; build items with
``scoring="analytic"`` for the exact-at-every-size sweep behavior.

Ineligible inputs fail loudly with a
:class:`~repro.errors.ValidationError` (only the four constructed
families — sorted, reverse, sawtooth, worst-case — have closed forms),
which is the same contract the scoring mode has everywhere else.
"""

from __future__ import annotations

from repro.engine.inline import InlineEngine
from repro.engine.registry import register_engine

__all__ = ["AnalyticExecutionEngine"]


class AnalyticExecutionEngine(InlineEngine):
    """Serves sort plans from the closed form; O(rounds) per task."""

    name = "analytic"

    def __init__(self, cache=None):
        super().__init__(scoring="analytic", cache=cache)


register_engine("analytic", lambda **kw: AnalyticExecutionEngine(**kw))
