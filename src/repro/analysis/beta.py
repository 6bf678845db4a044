"""Measuring Karsin et al.'s ``β₁`` / ``β₂`` on simulated runs.

Section II-A quotes their empirical Modern GPU values on random inputs:
``β₁ = 3.1`` (average bank conflicts per mutual-binary-search iteration)
and ``β₂ = 2.2`` (per merge iteration), growing with the input's inversion
count; the paper's construction drives ``β₂`` to ``Θ(E)``.

We measure β as the average *extra serialized cycles per warp step*
(``transactions/step − 1``): a conflict-free stage has β = 0; a step whose
worst bank receives ``c`` requests contributes ``c − 1``. On random inputs
this is the balls-in-bins expected-max-load minus one (≈ 2.4 for w = 32),
right where Karsin's 2.2 sits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort, SortResult

__all__ = ["BetaEstimate", "betas_from_result", "measure_betas"]


@dataclass(frozen=True)
class BetaEstimate:
    """Measured per-stage conflict rates for one sort."""

    beta1: float  # partition stage: extra cycles per search step
    beta2: float  # merge stage: extra cycles per merge step
    inversion_count: int | None = None

    def __str__(self) -> str:
        return f"beta1={self.beta1:.2f}, beta2={self.beta2:.2f}"


def betas_from_result(result: SortResult) -> BetaEstimate:
    """Extract β₁/β₂ from an instrumented sort's round stats."""
    merge_cycles = merge_steps = 0.0
    part_cycles = part_steps = 0.0
    for r in result.rounds:
        merge_cycles += r.merge_report.total_transactions * r.scale
        merge_steps += r.merge_report.conflict_free_cycles * r.scale
        part_cycles += r.counted_partition_report.total_transactions * r.scale
        part_steps += r.counted_partition_report.conflict_free_cycles * r.scale
    beta1 = part_cycles / part_steps - 1.0 if part_steps else 0.0
    beta2 = merge_cycles / merge_steps - 1.0 if merge_steps else 0.0
    return BetaEstimate(beta1=beta1, beta2=beta2)


def measure_betas(
    config: SortConfig,
    values: np.ndarray,
    *,
    score_blocks: int | None = 8,
    seed: int = 0,
    with_inversions: bool = False,
) -> BetaEstimate:
    """Sort ``values`` (instrumented) and report the measured βs.

    >>> import numpy as np
    >>> from repro.sort.config import SortConfig
    >>> cfg = SortConfig(elements_per_thread=3, block_size=32, warp_size=32)
    >>> est = measure_betas(cfg, np.arange(cfg.tile_size * 2))
    >>> est.beta2 < 0.5   # sorted input: merge stage nearly conflict free
    True
    """
    result = PairwiseMergeSort(config).sort(
        values, score_blocks=score_blocks, seed=seed
    )
    estimate = betas_from_result(result)
    if with_inversions:
        from repro.analysis.inversions import count_inversions

        estimate = BetaEstimate(
            beta1=estimate.beta1,
            beta2=estimate.beta2,
            inversion_count=count_inversions(np.asarray(values)),
        )
    return estimate
