"""Per-step serialization distributions.

Aggregate conflict counts say *how much* serialization an input causes;
the distribution of per-step costs says *how*. The constructed worst case
concentrates probability mass at exactly ``E`` (every targeted step is an
``E``-way pile-up); random inputs follow the balls-in-bins max-load law
(mass at 3–4 for ``w = 32``); sorted inputs sit at 1. The distribution is
also the right place to see *tail* behavior that averages hide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.sort.pairwise import SortResult

__all__ = ["StepCostDistribution", "step_cost_distribution"]


@dataclass(frozen=True)
class StepCostDistribution:
    """Histogram of per-warp-step serialized cycle costs."""

    counts: np.ndarray  # counts[c] = number of steps costing c cycles

    @property
    def num_steps(self) -> int:
        """Steps observed."""
        return int(self.counts.sum())

    @property
    def max_cost(self) -> int:
        """The worst single step observed."""
        nz = np.nonzero(self.counts)[0]
        return int(nz[-1]) if nz.size else 0

    def fraction_at_least(self, cost: int) -> float:
        """Fraction of steps costing ``>= cost`` cycles."""
        if cost < 0:
            raise ValidationError(f"cost must be nonnegative, got {cost}")
        if self.num_steps == 0:
            return 0.0
        start = min(cost, self.counts.size)
        return float(self.counts[start:].sum()) / self.num_steps

    def mean_cost(self) -> float:
        """Average serialized cycles per step."""
        if self.num_steps == 0:
            return 0.0
        costs = np.arange(self.counts.size)
        return float((costs * self.counts).sum()) / self.num_steps

    def quantile(self, q: float) -> int:
        """The ``q``-quantile of step cost (0 <= q <= 1)."""
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"q must be in [0, 1], got {q}")
        if self.num_steps == 0:
            return 0
        cumulative = np.cumsum(self.counts)
        return int(np.searchsorted(cumulative, q * self.num_steps))

    def as_rows(self) -> list[dict]:
        """Table rows for rendering (nonzero cost buckets only)."""
        return [
            {"cost": int(c), "steps": int(n),
             "fraction": float(n) / self.num_steps}
            for c, n in enumerate(self.counts)
            if n
        ]


def step_cost_distribution(
    result: SortResult, *, stage: str = "merge", kinds: tuple = ("global",)
) -> StepCostDistribution:
    """Histogram the per-step costs of one instrumented sort.

    Parameters
    ----------
    result:
        An instrumented sort result.
    stage:
        ``"merge"`` (β₂ accesses) or ``"partition"`` (β₁).
    kinds:
        Round kinds to include (default: the global rounds the paper's
        analysis centers on).
    """
    if stage not in ("merge", "partition"):
        raise ValidationError(f"stage must be 'merge' or 'partition', got {stage!r}")
    per_step = []
    for r in result.rounds:
        if r.kind not in kinds:
            continue
        report = (
            r.merge_report if stage == "merge" else r.counted_partition_report
        )
        per_step.append(report.per_step_transactions)
    if not per_step:
        return StepCostDistribution(counts=np.zeros(1, dtype=np.int64))
    flat = np.concatenate(per_step)
    return StepCostDistribution(
        counts=np.bincount(flat, minlength=int(flat.max()) + 1 if flat.size else 1)
    )
