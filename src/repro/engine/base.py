"""Execution-engine contract: one ``plan → execute`` path for every scorer.

The repo produces :class:`~repro.sort.pairwise.SortResult`\\ s and
:class:`~repro.bench.metrics.BenchPoint`\\ s through several historically
separate code paths — the per-tile loop oracle, the vectorized scorer,
the fused scorer, the closed-form analytic engine, and the service
daemon — plus two execution strategies (in-process and process
pool). :class:`ExecutionEngine` collapses them behind one interface:

* :meth:`ExecutionEngine.plan` turns a homogeneous batch of tasks (all
  :class:`SortTask` or all :class:`~repro.engine.tasks.WorkItem`) into an
  :class:`ExecutionPlan`;
* :meth:`ExecutionPlan.execute` runs the plan and returns results in
  task order — ``SortResult``\\ s for sort plans, ``BenchPoint``\\ s for
  point plans.

The division of labor is deliberate:

* For **sort plans** the engine *is* the scorer: ``inline-loop`` scores
  with the per-tile oracle, ``analytic`` with the closed form, and so on.
  :class:`SortTask` therefore carries no scoring field.
* For **point plans** the engine is the *execution strategy* (serial
  in-process, process pool, remote daemon) and each
  :class:`~repro.engine.tasks.WorkItem` carries its own ``scoring`` mode,
  because one sweep legitimately mixes closed-form and simulated points
  (``scoring="auto"``). Routing for ``"auto"`` is decided in exactly one
  place: :func:`repro.engine.registry.resolve_scoring`.

Bit-identity is the contract: every registered engine must produce
bit-identical results wherever its inputs are eligible, enforced by
``tests/engine/test_engine_equivalence.py`` against the loop oracle.
This module is import-light on purpose (only :mod:`repro.errors`) so the
sort/bench/service layers can import it without cycles.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    import numpy as np

    from repro.bench.metrics import BenchPoint
    from repro.sort.config import SortConfig
    from repro.sort.pairwise import SortResult

__all__ = ["ExecutionEngine", "ExecutionPlan", "SortTask"]


@dataclass(frozen=True)
class SortTask:
    """One instrumented-sort request, independent of how it executes.

    ``values`` optionally pins the exact input array (callers that
    already generated data, e.g. the service daemon checking
    ``sorted_ok``); when ``None`` the engine generates
    ``generate(input_name, config, num_elements, seed=seed)`` itself.
    Engines that cannot ship raw arrays (the service engine) require
    ``values is None`` and reject the task otherwise.
    """

    config: "SortConfig"
    input_name: str
    num_elements: int
    score_blocks: int | None = None
    seed: int = 0
    values: "np.ndarray | None" = None
    #: Shared-memory layout defense, as a canonical spec string (see
    #: :mod:`repro.mitigation.registry`).
    mitigation: str = "none"

    def describe(self) -> str:
        """Human-readable label for logs and errors."""
        return (
            f"{self.config.name} · {self.input_name} "
            f"· N={self.num_elements:,}"
        )


@dataclass(frozen=True)
class ExecutionPlan:
    """A validated, homogeneous batch of tasks bound to one engine.

    ``kind`` is ``"sort"`` (tasks are :class:`SortTask`) or ``"points"``
    (tasks are :class:`~repro.engine.tasks.WorkItem`); an empty plan is
    ``"points"`` by convention and executes to ``[]``.
    """

    engine: "ExecutionEngine"
    kind: str
    tasks: tuple

    def execute(self, *, progress: Callable | None = None) -> list:
        """Run every task; results come back in task order.

        ``progress`` (point plans only) receives one
        :class:`~repro.engine.tasks.ProgressEvent` per completed point,
        in completion order.
        """
        if not self.tasks:
            return []
        if self.kind == "sort":
            return self.engine._execute_sorts(self.tasks)
        return self.engine._execute_points(self.tasks, progress)


class ExecutionEngine(abc.ABC):
    """Abstract base of every registered engine.

    Concrete engines implement :meth:`_execute_sorts` and
    :meth:`_execute_points`; callers go through :meth:`plan` /
    :meth:`run_sort` / :meth:`run_points`. Engines may hold warm state
    (sorter caches, calibrated runners, worker pools) — :meth:`close`
    releases whatever is owned.
    """

    #: Registry name; concrete classes override.
    name: str = "abstract"

    def plan(self, tasks: Sequence) -> ExecutionPlan:
        """Validate a batch of tasks and bind it to this engine."""
        tasks = tuple(tasks)
        if not tasks:
            return ExecutionPlan(engine=self, kind="points", tasks=())
        kinds = {_task_kind(task) for task in tasks}
        if len(kinds) != 1:
            raise ValidationError(
                "a plan must be homogeneous: all SortTask or all WorkItem, "
                f"got a mix of {sorted(kinds)}"
            )
        return ExecutionPlan(engine=self, kind=kinds.pop(), tasks=tasks)

    def run_sort(self, task: SortTask) -> "SortResult":
        """Plan and execute one sort task."""
        return self.plan([task]).execute()[0]

    def run_points(
        self, items: Sequence, *, progress: Callable | None = None
    ) -> "list[BenchPoint]":
        """Plan and execute a batch of sweep points, in item order."""
        return self.plan(items).execute(progress=progress)

    # -- subclass hooks ------------------------------------------------------

    @abc.abstractmethod
    def _execute_sorts(self, tasks: tuple) -> list:
        """Execute a tuple of :class:`SortTask`\\ s, in order."""

    @abc.abstractmethod
    def _execute_points(self, items: tuple, progress: Callable | None) -> list:
        """Execute a tuple of :class:`~repro.engine.tasks.WorkItem`\\ s."""

    def close(self) -> None:
        """Release owned resources (pools, connections); idempotent."""

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _task_kind(task) -> str:
    if isinstance(task, SortTask):
        return "sort"
    # WorkItem lives in repro.engine.tasks, which imports the bench layer;
    # duck-type here to keep this module import-light.
    if hasattr(task, "input_name") and hasattr(task, "device"):
        return "points"
    raise ValidationError(
        f"plan() takes SortTask or WorkItem instances, got {type(task).__name__}"
    )
