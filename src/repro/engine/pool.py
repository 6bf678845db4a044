"""Process-pool execution: warm workers for sweeps and batched sorts.

:class:`PoolEngine` fans plans out over worker processes: point plans
are submitted item-by-item to a
:class:`~concurrent.futures.ProcessPoolExecutor` and collected in
completion order (results still return in item order). Each worker
process keeps module-level warm state — a fingerprint-keyed
:class:`~repro.bench.runner.SweepRunner` table for points (the
:func:`~repro.engine.tasks.runner_key` core, so a config or device
change can never hit a stale runner) and an
:class:`~repro.engine.inline.InlineEngine` per scoring mode for sorts —
amortizing calibrations and conflict memos across every plan the pool
executes.

The pool is either *owned* (``jobs=N`` — created lazily, shut down by
:meth:`PoolEngine.close`) or *borrowed* (``pool=...`` — a long-lived
caller such as the service daemon manages its lifecycle; the engine
never shuts it down).

Determinism: a point's result depends only on the item's fields (every
input and block-sampling choice is seeded per point), so pooled and
serial execution produce bit-identical results — enforced by
``tests/bench/test_parallel.py`` and the engine-equivalence suite.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable

from repro.dmm.memo import ConflictMemo
from repro.engine.base import ExecutionEngine, SortTask
from repro.engine.registry import (
    DEFAULT_SCORING,
    check_scoring,
    register_engine,
)
from repro.engine.tasks import ProgressEvent, WorkItem, execute_item
from repro.errors import ValidationError

__all__ = ["PoolEngine"]


#: Per-worker warm state (each worker process gets its own copies).
_WORKER_RUNNERS: dict = {}
_WORKER_ENGINES: dict = {}


def _worker_point(item: WorkItem):
    """Run one sweep point in a worker.

    Returns ``(point, seconds, from_cache, memo_delta, mit_delta)``. The
    memo delta is this item's change to the *worker's* process-wide
    :class:`~repro.dmm.memo.ConflictMemo` counters — class attributes
    that only ever mutate in whichever process runs the sort, so without
    shipping them back the parent's ``cache stats`` / sweep memo lines /
    service ``/stats`` under-report every pooled run. ``mit_delta`` is
    the matching per-mitigation hit/miss breakdown delta.
    """
    before = ConflictMemo.process_stats()
    mit_before = ConflictMemo.mitigation_stats()
    point, seconds, from_cache = execute_item(item, _WORKER_RUNNERS)
    return (
        point,
        seconds,
        from_cache,
        ConflictMemo.process_stats_delta(before),
        ConflictMemo.mitigation_stats_delta(mit_before),
    )


def _worker_sort(task: SortTask, scoring: str, memoized: bool):
    """Run one sort task in a worker, reusing a per-mode inline engine.

    Returns ``(result, memo_delta, mit_delta)`` — see
    :func:`_worker_point` for why the deltas travel with the result.
    """
    from repro.engine.inline import InlineEngine

    key = (scoring, memoized)
    engine = _WORKER_ENGINES.get(key)
    if engine is None:
        engine = InlineEngine(
            scoring=scoring, memo="auto" if memoized else None
        )
        _WORKER_ENGINES[key] = engine
    before = ConflictMemo.process_stats()
    mit_before = ConflictMemo.mitigation_stats()
    result = engine.run_sort(task)
    return (
        result,
        ConflictMemo.process_stats_delta(before),
        ConflictMemo.mitigation_stats_delta(mit_before),
    )


class PoolEngine(ExecutionEngine):
    """Executes plans on a (warm) process pool.

    Parameters
    ----------
    jobs:
        Worker count for an owned pool; created lazily on first use and
        shut down by :meth:`close`. Ignored when ``pool`` is given.
    pool:
        Externally owned executor to borrow instead. The caller keeps
        lifecycle responsibility; borrowing preserves the workers' warm
        runner tables across engine instances.
    scoring, memoized:
        Scoring mode for **sort plans**, resolved per task in the worker
        (the default "auto" routes through the registry like every other
        path). Point plans are self-describing via ``WorkItem.scoring``.
    """

    name = "pool"

    def __init__(
        self,
        jobs: int | None = None,
        *,
        pool: ProcessPoolExecutor | None = None,
        scoring: str = DEFAULT_SCORING,
        memoized: bool = True,
    ):
        if pool is None:
            if jobs is None:
                raise ValidationError(
                    "PoolEngine needs jobs=N (owned pool) or pool=... "
                    "(borrowed executor)"
                )
            if jobs < 1:
                raise ValidationError(f"jobs must be >= 1, got {jobs}")
        self.scoring = check_scoring(scoring)
        self.memoized = bool(memoized)
        self._jobs = jobs
        self._borrowed = pool
        self._owned: ProcessPoolExecutor | None = None

    @property
    def pool(self) -> ProcessPoolExecutor:
        """The executor in use, creating the owned one lazily."""
        if self._borrowed is not None:
            return self._borrowed
        if self._owned is None:
            self._owned = ProcessPoolExecutor(max_workers=self._jobs)
        return self._owned

    def close(self) -> None:
        if self._owned is not None:
            self._owned.shutdown(wait=True, cancel_futures=True)
            self._owned = None

    # -- plans ---------------------------------------------------------------

    def _execute_sorts(self, tasks: tuple) -> list:
        futures = {
            self.pool.submit(
                _worker_sort, task, self.scoring, self.memoized
            ): i
            for i, task in enumerate(tasks)
        }
        results = [None] * len(tasks)
        for future in as_completed(futures):
            result, memo_delta, mit_delta = future.result()
            ConflictMemo.absorb_stats(memo_delta)
            ConflictMemo.absorb_mitigation_stats(mit_delta)
            results[futures[future]] = result
        return results

    def _execute_points(
        self, items: tuple, progress: Callable | None
    ) -> list:
        total = len(items)
        results = [None] * total
        futures = {
            self.pool.submit(_worker_point, item): i
            for i, item in enumerate(items)
        }
        done = 0
        for future in as_completed(futures):
            i = futures[future]
            point, elapsed, from_cache, memo_delta, mit_delta = future.result()
            ConflictMemo.absorb_stats(memo_delta)
            ConflictMemo.absorb_mitigation_stats(mit_delta)
            results[i] = point
            done += 1
            if progress is not None:
                progress(
                    ProgressEvent(
                        done, total, items[i], point, elapsed, from_cache
                    )
                )
        return results


register_engine("pool", lambda **kw: PoolEngine(**kw))
