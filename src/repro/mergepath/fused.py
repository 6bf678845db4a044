"""Fused round kernels: merge + partition + conflict scoring in one pass.

This is the ``scoring="fused"`` hot path of :class:`PairwiseMergeSort`. The
classic pipeline runs four materializing stages per round —
``batched_rank_addresses`` → ``partition_many_with_trace`` →
``stack_group_warp_steps`` → ``count_conflicts`` — each allocating arrays
proportional to the round size. The fused layer collapses them:

* **native backend** (:mod:`repro._fused_native`, built by ``setup.py``):
  :func:`merge_pairs` replaces the round's stable ``argsort`` with a
  row-wise two-pointer merge, and :func:`fused_block_reports` /
  :func:`fused_global_reports` walk each scored tile once — reconstructing
  its merge interleaving locally (per-pair serial merges for block rounds,
  merge-path window splits for global rounds), bisecting the β₁ diagonals
  lane-compressed, and histogramming banks per warp-step — emitting only
  the per-step transaction sequences and the scalar counters a
  :class:`~repro.dmm.conflicts.ConflictReport` needs. No order array, no
  address matrices, no traces.
* **numpy fallback** (extension absent or ``REPRO_FORCE_NUMPY=1``): the
  sorter keeps the argsort merge and counts through the per-tile numpy
  kernels every non-loop path shares —
  :func:`repro.dmm.fused.tile_merge_counts` and
  :func:`repro.mergepath.partition.probe_tile_counts` — instead of
  building traces.

Both backends are bit-identical to the ``scoring="loop"`` oracle
(``tests/sort/test_fused_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from repro.dmm import fused as dmm_fused
from repro.dmm.conflicts import ConflictReport

__all__ = [
    "fused_block_reports",
    "fused_global_reports",
    "merge_pairs",
    "native_round_ready",
]


def native_round_ready(flat_pre: np.ndarray) -> bool:
    """Whether the compiled kernels can take this round's value buffer.

    The native kernels are int64-only by design (the simulator's key
    type); other dtypes fall back to the numpy fused path, which accepts
    anything ``argsort`` does.
    """
    return (
        dmm_fused.native_enabled()
        and flat_pre.dtype == np.int64
        and flat_pre.flags.c_contiguous
    )


def merge_pairs(
    mat: np.ndarray, run: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Stable (A-first) merge of every ``(2·run)`` row of ``mat``, native.

    Bit-identical to ``np.take_along_axis(mat, np.argsort(mat, axis=1,
    kind="stable"), axis=1)`` for rows made of two sorted halves, without
    materializing the order array — callers must check
    :func:`native_round_ready` first. ``out``, if given, must be a
    distinct C-contiguous int64 array of ``mat``'s shape; the merge
    writes into it (and returns it) instead of allocating.
    """
    native = dmm_fused.native_module()
    if out is None:
        return native.merge_pairs(mat, run)
    return native.merge_pairs(mat, run, out)


def _round_reports(raw: tuple, num_banks: int) -> tuple[ConflictReport, ConflictReport]:
    """Native 8-tuple → (merge_report, partition_report)."""
    m_ps, m_acc, m_req, m_rep, p_ps, p_acc, p_req, p_rep = raw
    return (
        dmm_fused.report_from_per_step(num_banks, m_ps, m_acc, m_req, m_rep),
        dmm_fused.report_from_per_step(num_banks, p_ps, p_acc, p_req, p_rep),
    )


def fused_block_reports(
    flat_pre: np.ndarray,
    scored: np.ndarray,
    run: int,
    elements_per_thread: int,
    block_size: int,
    warp_size: int,
    padding: int,
) -> tuple[ConflictReport, ConflictReport]:
    """Score the given tiles of a block round straight from ``flat_pre``."""
    raw = dmm_fused.native_module().score_block_round(
        flat_pre,
        scored,
        run,
        elements_per_thread,
        block_size,
        warp_size,
        padding,
    )
    return _round_reports(raw, warp_size)


def fused_global_reports(
    flat_pre: np.ndarray,
    scored: np.ndarray,
    run: int,
    elements_per_thread: int,
    block_size: int,
    warp_size: int,
    padding: int,
) -> tuple[ConflictReport, ConflictReport]:
    """Score the given blocks of a global round straight from ``flat_pre``."""
    raw = dmm_fused.native_module().score_global_round(
        flat_pre,
        scored,
        run,
        elements_per_thread,
        block_size,
        warp_size,
        padding,
    )
    return _round_reports(raw, warp_size)
