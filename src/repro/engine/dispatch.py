"""Convenience dispatch: items in, points out, engine chosen for you.

:func:`execute_items` runs a batch of sweep points: a borrowed pool
routes through a :class:`~repro.engine.pool.PoolEngine` wrapper,
``jobs > 1`` creates
(and tears down) an owned pool, and the serial path runs on one shared
process-level :class:`~repro.engine.inline.InlineEngine` — preserving
the old module-global runner table's semantics, where calibrations and
conflict memos stay warm across serial calls within a process.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

from repro.engine.inline import InlineEngine
from repro.engine.pool import PoolEngine
from repro.engine.tasks import ProgressEvent, WorkItem
from repro.errors import ValidationError

__all__ = ["execute_items", "shared_inline_engine"]

_SHARED_INLINE: InlineEngine | None = None


def shared_inline_engine() -> InlineEngine:
    """The process-level serial engine (warm across calls)."""
    global _SHARED_INLINE
    if _SHARED_INLINE is None:
        _SHARED_INLINE = InlineEngine()
    return _SHARED_INLINE


def execute_items(
    items: Sequence[WorkItem],
    *,
    jobs: int = 1,
    progress: Callable[[ProgressEvent], None] | None = None,
    pool: ProcessPoolExecutor | None = None,
) -> list:
    """Execute work items, preserving input order in the result list.

    Parameters
    ----------
    items:
        The sweep points to run.
    jobs:
        Worker processes; ``1`` runs serially in-process (no pool).
        Ignored when ``pool`` is given.
    progress:
        Optional callback invoked once per completed point (completion
        order, not submission order, under pooled execution).
    pool:
        Optional externally owned :class:`ProcessPoolExecutor` to borrow
        instead of creating (and tearing down) a private one. Long-lived
        callers — the :mod:`repro.service` daemon above all — pass a
        warm pool so worker processes keep their runner tables
        (calibrations + conflict memos) across calls. The caller owns
        the pool's lifecycle; it is never shut down here.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    items = list(items)
    if pool is not None:
        return PoolEngine(pool=pool).run_points(items, progress=progress)
    if jobs == 1 or len(items) <= 1:
        return shared_inline_engine().run_points(items, progress=progress)
    engine = PoolEngine(jobs=min(jobs, len(items)))
    try:
        return engine.run_points(items, progress=progress)
    finally:
        engine.close()
