"""In-process execution: the loop / vectorized / fused / auto scorers.

One :class:`InlineEngine` instance is warm state: it caches
:class:`~repro.sort.pairwise.PairwiseMergeSort` instances per
(config, resolved scoring, mitigation) for sort plans, and a
fingerprint-keyed :class:`~repro.bench.runner.SweepRunner` table for
point plans (the serial equivalent of a pool worker's table — same
:func:`~repro.engine.tasks.runner_for` core, same staleness fix).

Registered names (see :mod:`repro.engine.registry`):

==================  ======================================================
``inline``          ``scoring="auto"`` — the general-purpose engine; each
                    sort task routes through
                    :func:`~repro.engine.registry.resolve_scoring`
``inline-loop``     the per-tile reference oracle
``inline-vectorized``  batched counting-kernel scoring
``inline-fused``    single-pass fused scoring (compiled backend when built)
==================  ======================================================
"""

from __future__ import annotations

from typing import Callable

from repro.engine.base import ExecutionEngine, SortTask
from repro.engine.registry import (
    DEFAULT_SCORING,
    check_scoring,
    register_engine,
    resolve_scoring,
)
from repro.engine.tasks import ProgressEvent, RunnerTable, execute_item
from repro.inputs.generators import generate

__all__ = ["InlineEngine"]


class InlineEngine(ExecutionEngine):
    """Runs plans in this process.

    Parameters
    ----------
    scoring:
        Scoring mode applied to **sort plans** ("auto" routes per task).
        Point plans are self-describing — each
        :class:`~repro.engine.tasks.WorkItem` carries its own ``scoring``
        — so this knob does not apply to them.
    """

    name = "inline"

    def __init__(
        self,
        scoring: str = DEFAULT_SCORING,
        cache=None,
    ):
        check_scoring(scoring)
        self.scoring = scoring
        self.cache = cache
        self._sorters: dict[tuple, object] = {}
        self._runners = RunnerTable()

    # -- sort plans ----------------------------------------------------------

    def _sorter_for(self, config, scoring: str, mitigation: str = "none"):
        from repro.mitigation.registry import create_mitigation
        from repro.sort.pairwise import PairwiseMergeSort

        # Keyed on the canonical spec: "padding" and "padding:1" are one
        # layout, so they share one sorter.
        mitigation = create_mitigation(mitigation)
        key = (config, scoring, mitigation.spec)
        sorter = self._sorters.get(key)
        if sorter is None:
            sorter = PairwiseMergeSort(
                config, scoring=scoring, mitigation=mitigation
            )
            self._sorters[key] = sorter
        return sorter

    def _execute_sorts(self, tasks: tuple) -> list:
        results = []
        for task in tasks:
            scoring = resolve_scoring(
                self.scoring,
                config=task.config,
                input_name=task.input_name,
                num_elements=task.num_elements,
                mitigation=task.mitigation,
            )
            sorter = self._sorter_for(task.config, scoring, task.mitigation)
            data = task.values
            if data is None:
                data = generate(
                    task.input_name, task.config, task.num_elements,
                    seed=task.seed,
                )
            results.append(
                sorter.sort(
                    data, score_blocks=task.score_blocks, seed=task.seed
                )
            )
        return results

    # -- point plans ---------------------------------------------------------

    def _execute_points(
        self, items: tuple, progress: Callable | None
    ) -> list:
        total = len(items)
        results = []
        for i, item in enumerate(items):
            point, elapsed, from_cache = execute_item(item, self._runners)
            results.append(point)
            if progress is not None:
                progress(
                    ProgressEvent(i + 1, total, item, point, elapsed, from_cache)
                )
        return results


def _inline_factory(name: str, scoring: str):
    def make(*, cache=None) -> InlineEngine:
        engine = InlineEngine(scoring=scoring, cache=cache)
        engine.name = name
        return engine

    return make


register_engine("inline", _inline_factory("inline", "auto"))
register_engine("inline-loop", _inline_factory("inline-loop", "loop"))
register_engine(
    "inline-vectorized", _inline_factory("inline-vectorized", "vectorized")
)
register_engine("inline-fused", _inline_factory("inline-fused", "fused"))
