"""Instrumented K-way merge sort — Karsin et al.'s alternative.

The paper's Section II-C cites multiway merge sort [19, 21] alongside the
pairwise algorithm it attacks. The multiway variant trades per-round
simplicity for *fewer rounds*: ``⌈log_K(N/bE)⌉`` global rounds instead of
``⌈log₂(N/bE)⌉``, slashing the ``A_g`` global-traffic term that motivates
large ``E`` in the first place.

Model:

* the base case (register sort + block-level pairwise rounds up to ``bE``)
  is identical to :class:`~repro.sort.pairwise.PairwiseMergeSort` and is
  delegated to it;
* each multiway round merges groups of ``K`` sorted runs; a block's tile
  holds its ``bE``-rank quantile of a group — the ``K`` source windows
  laid out contiguously — and each thread merges ``E`` elements, reading
  them in value order (one shared access per lock-step, exactly the access
  model of the paper's analysis, traced and conflict-scored);
* the partition stage is modeled as each thread rank-searching its start
  in all ``K`` source windows (``K·⌈log₂ run⌉`` probes, traced), and each
  block boundary doing the same in global memory (counted as scattered
  traffic).

The interesting adversarial question — measured in
``benchmarks/bench_baseline_multiway.py`` — is that the paper's
construction is *pairwise-specific*: under K-way consumption the
engineered alignment partially decoheres, so multiway merge sort is both
faster on random inputs (fewer rounds) and less damaged by this adversary.
(A K-way-specific worst case surely exists; constructing one is open.)
"""

from __future__ import annotations

import numpy as np

from repro.dmm.conflicts import ConflictReport, count_conflicts
from repro.dmm.trace import NO_ACCESS, AccessTrace
from repro.errors import ValidationError
from repro.gpu.global_memory import CoalescingModel, GlobalTraffic
from repro.mergepath.kernels import stack_warp_steps, thread_rank_addresses
from repro.mitigation.registry import reconcile_mitigation
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort, RoundStats, SortResult
from repro.utils.bits import ceil_log2
from repro.utils.rng import as_generator
from repro.utils.validation import check_no_nan, check_power_of_two

__all__ = ["MultiwaySort"]


class MultiwaySort:
    """Simulated K-way merge sort sharing the pairwise base case.

    Parameters
    ----------
    config:
        Tile shape parameters (``E``, ``b``, ``w``) — same meaning as for
        the pairwise sort.
    k:
        Merge fan-in ``K`` (power of two ≥ 2; ``K = 2`` degenerates to the
        pairwise algorithm round structure).
    mitigation:
        Layout defense applied to every traced shared-memory address —
        in the delegated pairwise base case and in the multiway rounds
        alike (spec string or
        :class:`~repro.mitigation.base.Mitigation`; default ``"none"``).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.sort.config import SortConfig
    >>> cfg = SortConfig(elements_per_thread=3, block_size=4, warp_size=4)
    >>> s = MultiwaySort(cfg, k=4)
    >>> data = np.random.default_rng(0).permutation(cfg.tile_size * 16)
    >>> bool(np.array_equal(s.sort(data).values, np.sort(data)))
    True
    """

    def __init__(self, config: SortConfig, k: int = 4, *, mitigation=None):
        self.config = config
        self.k = check_power_of_two(k, "k")
        self.mitigation = reconcile_mitigation(mitigation)
        if k < 2:
            raise ValidationError(f"fan-in k must be >= 2, got {k}")

    def num_multiway_rounds(self, num_elements: int) -> int:
        """Global rounds: ``⌈log_K(N / bE)⌉``."""
        tiles = self.config.validate_input_size(num_elements) // (
            self.config.tile_size
        )
        rounds = 0
        while tiles > 1:
            tiles = -(-tiles // self.k)
            rounds += 1
        return rounds

    # -- public API ----------------------------------------------------------

    def sort(
        self,
        values: np.ndarray,
        *,
        score_blocks: int | None = None,
        seed: int | None = 0,
    ) -> SortResult:
        """Sort ``values`` with full instrumentation."""
        cfg = self.config
        arr = np.ascontiguousarray(values)
        n = cfg.validate_input_size(arr.size)
        check_no_nan(arr, "sort keys")
        rng = as_generator(seed)

        result = SortResult(values=arr, config=cfg, num_elements=n)

        # Base case: identical to the pairwise algorithm.
        pairwise = PairwiseMergeSort(cfg, mitigation=self.mitigation)
        arr = pairwise._base_register_phase(arr, result)
        run = cfg.E
        while run < min(cfg.tile_size, n):
            arr, _ = pairwise._merge_round(arr, run, result, score_blocks, rng)
            run *= 2

        # Multiway rounds.
        while run < n:
            fan = min(self.k, n // run)
            arr = self._multiway_round(arr, run, fan, result, score_blocks, rng)
            run *= fan
        result.values = arr
        return result

    # -- one K-way round -------------------------------------------------

    def _multiway_round(
        self,
        arr: np.ndarray,
        run: int,
        fan: int,
        result: SortResult,
        score_blocks: int | None,
        rng: np.random.Generator,
    ) -> np.ndarray:
        cfg = self.config
        n = arr.size
        group_width = fan * run
        num_groups = n // group_width

        mat = arr.reshape(num_groups, group_width)
        # Stable argsort of the K concatenated runs == stable K-way merge
        # (ties resolve to the lower run index, the standard convention).
        order = np.argsort(mat, axis=1, kind="stable")
        merged = np.take_along_axis(mat, order, axis=1)

        blocks_per_group = group_width // cfg.tile_size
        blocks_total = num_groups * blocks_per_group
        scored = _choose(blocks_total, score_blocks, rng)

        merge_rows = []
        part_rows = []
        for blk in scored:
            group, x = divmod(int(blk), blocks_per_group)
            r_lo = x * cfg.tile_size
            r_hi = r_lo + cfg.tile_size
            s = order[group, r_lo:r_hi]
            src = s // run

            # Source-window starts (exclusive prefix counts before r_lo) and
            # the block's per-source window sizes.
            prior = order[group, :r_lo] // run
            lo = np.bincount(prior, minlength=fan)
            sizes = np.bincount(src, minlength=fan)
            window_base = np.concatenate([[0], np.cumsum(sizes)[:-1]])

            # Tile-local address of each output rank.
            local = window_base[src] + (s % run) - lo[src]
            merge_rows.append(
                stack_warp_steps(
                    thread_rank_addresses(local.astype(np.int64), cfg.E), cfg.w
                )
            )

            # Partition stage: each thread rank-searches its first value in
            # every source window (K bisections over the tile).
            starts = np.arange(cfg.b, dtype=np.int64) * cfg.E
            targets = merged[group, r_lo + starts]
            for k_src in range(fan):
                steps = _rank_search_steps(
                    mat[group],
                    value_targets=targets,
                    base=k_src * run + lo[k_src],
                    length=int(sizes[k_src]),
                    trace_base=int(window_base[k_src]),
                )
                if steps.size:
                    part_rows.append(stack_warp_steps(steps, cfg.w))

        merge_report = _score(merge_rows, cfg.w, self.mitigation)
        part_report = _score(part_rows, cfg.w, self.mitigation)

        coalescing = CoalescingModel(cfg.w)
        coalescing.streamed_copy(n)
        coalescing.streamed_copy(n)
        probes = blocks_total * fan * ceil_log2(run + 1)
        coalescing.scattered_access(probes)

        result.rounds.append(
            RoundStats(
                label=f"multiway-round-L{run}-K{fan}",
                kind="global",
                run_length=run,
                merge_report=merge_report,
                partition_report=part_report,
                staging_report=ConflictReport.empty(cfg.w),
                global_traffic=coalescing.reset(),
                compute_instructions=(2 + fan) * n // cfg.w,
                blocks_total=blocks_total,
                blocks_scored=len(scored),
            )
        )
        return merged.reshape(-1)


def _rank_search_steps(
    flat: np.ndarray,
    value_targets: np.ndarray,
    base: int,
    length: int,
    trace_base: int,
) -> np.ndarray:
    """Per-lane bisection for ``rank of target`` in one sorted window.

    Returns the dense ``(steps, lanes)`` probe-address matrix (tile-local
    addresses, one probe per iteration per active lane).
    """
    lanes = value_targets.size
    lo = np.zeros(lanes, dtype=np.int64)
    hi = np.full(lanes, length, dtype=np.int64)
    rows = []
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) // 2
        row = np.full(lanes, NO_ACCESS, dtype=np.int64)
        row[active] = trace_base + mid[active]
        rows.append(row)
        below = np.zeros(lanes, dtype=bool)
        below[active] = flat[(base + mid)[active]] < value_targets[active]
        lo = np.where(below, mid + 1, lo)
        hi = np.where(active & ~below, mid, hi)
    return np.vstack(rows) if rows else np.empty((0, lanes), dtype=np.int64)


def _choose(total: int, score_blocks: int | None, rng) -> np.ndarray:
    if score_blocks is None or score_blocks >= total:
        return np.arange(total, dtype=np.int64)
    return np.sort(rng.choice(total, size=score_blocks, replace=False)).astype(
        np.int64
    )


def _score(rows: list, num_banks: int, mitigation=None) -> ConflictReport:
    if not rows:
        return ConflictReport.empty(num_banks)
    dense = rows[0] if len(rows) == 1 else np.vstack(rows)
    if mitigation is not None:
        dense = mitigation.remap(dense, num_banks)
    return count_conflicts(AccessTrace.from_dense(dense), num_banks)
