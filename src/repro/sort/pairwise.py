"""The instrumented pairwise merge sort simulator.

This is the system under test: a faithful functional model of the Thrust /
Modern GPU pairwise merge sort (paper Section II-A) that, besides sorting,
records every shared-memory access of every warp and scores it through the
DMM conflict model, and counts all global-memory traffic.

Structure of a sort of ``N = bE·2^k`` elements:

* **base case** — every thread sorts ``E`` register-resident elements with
  the odd-even network (the loads/stores that stage them through shared
  memory are traced), then ``log b`` *block rounds* merge runs
  ``E → 2E → … → bE`` inside each tile;
* ``k`` **global rounds** merge runs ``bE → 2bE → … → N``; each round every
  thread block finds its ``bE`` output quantile (mutual binary search in
  global memory — counted as scattered traffic), loads it to shared memory
  (coalesced), partitions it among its ``b`` threads (mutual binary search
  in shared memory — traced, the paper's β₁ stage), and merges ``E``
  elements per thread (traced, the β₂ stage).

Implementation notes (why this is fast enough to sweep):

* A merge round is computed for *all* pairs at once with one stable
  row-wise ``argsort`` — for two sorted halves this reproduces the stable
  (A-first) merge exactly, and the resulting ``order`` array doubles as the
  per-rank shared-memory address map (DESIGN.md §5). Sampled rounds sort
  values and argsort only scored rows: a stable row sort gives the same
  merged values, and only the pair rows the scored tiles read need an
  address map (DESIGN.md §12).
* Conflict scoring is warp-additive, so all scored blocks of a round are
  counted at once, per tile, by two numpy kernels —
  :func:`~repro.dmm.fused.tile_merge_counts` (merge stage) and
  :func:`~repro.mergepath.partition.probe_tile_counts` (β₁ probes) —
  with no traces or probe matrices; the memoized path counts only tiles
  whose pattern it has not seen.
* ``score_blocks`` caps how many tiles/blocks per round are scored
  (merging still processes all of them); the constructed adversarial
  inputs are periodic across blocks, so a small sample is *exact* for
  them and an unbiased estimate for random inputs. ``RoundStats`` keeps
  the scored/total counts so every aggregate can be rescaled honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dmm.conflicts import ConflictReport, count_conflicts
from repro.dmm.fused import (
    permutation_stage_report,
    report_from_per_step,
    tile_merge_counts,
)
from repro.dmm.memo import ConflictMemo, MemoStats
from repro.dmm.trace import AccessTrace
from repro.errors import SimulationError, ValidationError
from repro.gpu.global_memory import CoalescingModel, GlobalTraffic
from repro.gpu.timing import KernelCost
from repro.mergepath import fused as fused_kernels
from repro.mergepath.kernels import stack_warp_steps, thread_rank_addresses
from repro.mergepath.partition import partition_many_with_trace, probe_tile_counts
from repro.sort.config import SortConfig
from repro.sort.networks import apply_oddeven_network, oddeven_network
from repro.utils.bits import ceil_log2
from repro.utils.rng import as_generator
from repro.utils.validation import check_no_nan

__all__ = ["PairwiseMergeSort", "RoundStats", "SortResult"]


@dataclass(frozen=True)
class RoundStats:
    """Instrumentation for one merge round (or the base register phase).

    ``merge_report`` / ``partition_report`` cover only the ``blocks_scored``
    sampled tiles; multiply by :attr:`scale` for whole-round estimates.
    ``staging_report`` (register load/store, base phase only) is already
    whole-round exact.
    """

    label: str
    kind: str  # "registers" | "block" | "global"
    run_length: int
    merge_report: ConflictReport
    partition_report: ConflictReport
    staging_report: ConflictReport
    global_traffic: GlobalTraffic
    compute_instructions: int
    blocks_total: int
    blocks_scored: int

    @property
    def scale(self) -> float:
        """Whole-round / scored-sample ratio for the traced reports."""
        if self.blocks_scored == 0:
            if self.blocks_total == 0:
                return 0.0
            # A NaN here would propagate silently through shared_cycles /
            # replays into benchmark output; fail loudly instead.
            raise SimulationError(
                f"round {self.label!r} scored 0 of {self.blocks_total} "
                "blocks; sampled reports cannot be rescaled"
            )
        return self.blocks_total / self.blocks_scored

    @property
    def shared_cycles(self) -> float:
        """Estimated serialized shared-memory cycles for the whole round."""
        traced = (
            self.merge_report.total_transactions
            + self.partition_report.total_transactions
        )
        return traced * self.scale + self.staging_report.total_transactions

    @property
    def shared_steps(self) -> float:
        """Conflict-free cycle count for the same accesses."""
        traced = (
            self.merge_report.conflict_free_cycles
            + self.partition_report.conflict_free_cycles
        )
        return traced * self.scale + self.staging_report.conflict_free_cycles

    @property
    def replays(self) -> float:
        """Estimated profiler-style bank conflicts for the whole round."""
        traced = (
            self.merge_report.total_replays + self.partition_report.total_replays
        )
        return traced * self.scale + self.staging_report.total_replays

    @property
    def merge_replays(self) -> float:
        """Whole-round merging-stage (β₂) conflicts."""
        return self.merge_report.total_replays * self.scale

    @property
    def partition_replays(self) -> float:
        """Whole-round partition-stage (β₁) conflicts."""
        return self.partition_report.total_replays * self.scale


@dataclass
class SortResult:
    """Output of one simulated sort: the values plus full instrumentation."""

    values: np.ndarray
    config: SortConfig
    num_elements: int
    rounds: list[RoundStats] = field(default_factory=list)
    #: Memoization hit/miss/footprint summary for this sort (hits and
    #: misses are deltas for this call even when the memo is shared);
    #: ``None`` when the sort ran without a memo.
    memo_stats: MemoStats | None = None

    @property
    def num_rounds(self) -> int:
        """Merge rounds executed (excluding the register phase)."""
        return sum(1 for r in self.rounds if r.kind != "registers")

    def total_shared_cycles(self) -> float:
        """Serialized shared-memory cycles across the whole sort."""
        return sum(r.shared_cycles for r in self.rounds)

    def total_replays(self) -> float:
        """Profiler-style bank conflicts across the whole sort."""
        return sum(r.replays for r in self.rounds)

    def replays_per_element(self) -> float:
        """The paper's Figure 6 metric: bank conflicts per input element."""
        return self.total_replays() / self.num_elements

    def total_global_traffic(self) -> GlobalTraffic:
        """Global transactions/words across the whole sort."""
        traffic = GlobalTraffic()
        for r in self.rounds:
            traffic = traffic.merged(r.global_traffic)
        return traffic

    def kernel_cost(self, warps_per_sm: int = 32) -> KernelCost:
        """Fold instrumentation into a :class:`~repro.gpu.timing.KernelCost`.

        ``warps_per_sm`` comes from the occupancy calculator for the
        configuration/device pair (see :mod:`repro.bench.runner`).
        """
        traffic = self.total_global_traffic()
        launches = 1 + 2 * sum(1 for r in self.rounds if r.kind == "global")
        return KernelCost(
            shared_cycles=round(self.total_shared_cycles()),
            shared_steps=round(sum(r.shared_steps for r in self.rounds)),
            global_transactions=traffic.transactions,
            global_words=traffic.words,
            compute_warp_instructions=sum(r.compute_instructions for r in self.rounds),
            kernel_launches=launches,
            warps_per_sm=warps_per_sm,
            element_bytes=self.config.element_bytes,
        )


class PairwiseMergeSort:
    """Simulated GPU pairwise merge sort for one :class:`SortConfig`.

    Parameters
    ----------
    config:
        The sort parameters.
    padding:
        Dotsenko-style shared-memory padding (elements skipped per ``w``
        logical cells — see :mod:`repro.mitigation.padding`). 0 models the
        stock Thrust/Modern GPU layout the paper attacks; 1 is the
        conflict-free mitigation the paper's related work discusses.
        Legacy spelling of ``mitigation="padding:N"`` — both knobs
        reconcile through
        :func:`~repro.mitigation.registry.reconcile_mitigation`, and
        disagreeing values raise.
    mitigation:
        Shared-memory layout defense: a spec string (``"none"``,
        ``"padding:1"``, ``"cfree-sort"``, ``"cfree-permute"``), a
        :class:`~repro.mitigation.base.Mitigation` instance, or ``None``
        for the registry default. Every scoring path applies the
        backend's address remap before conflict counting;
        ``scoring="analytic"`` demands an analytically-modeled backend
        (``none``/``padding``) and raises a
        :class:`~repro.errors.ValidationError` otherwise — matrix cells
        must never report closed-form numbers for layouts the model
        doesn't cover.
    scoring:
        ``"vectorized"`` (default) scores every scored tile of a round with
        the per-tile counting kernels
        (:func:`~repro.dmm.fused.tile_merge_counts`,
        :func:`~repro.mergepath.partition.probe_tile_counts`) — through
        the memo when there is one; ``"loop"`` is the original
        tile-at-a-time, trace-based reference implementation. Both produce
        bit-identical :class:`SortResult`\\ s (enforced by the equivalence
        tests) — keep ``"loop"`` around only as the oracle. ``"fused"``
        dispatches each round to the optional compiled backend
        (:mod:`repro.mergepath.fused`) when it is importable and
        ``REPRO_FORCE_NUMPY`` is unset, and otherwise runs the same
        counting kernels memo-free — again bit-identical, including the
        sampled-block RNG draw order. ``"analytic"`` skips trace
        simulation entirely: the input must be a recognized constructed
        family (sorted / strictly-decreasing / canonical sawtooth /
        worst-case — anything else raises
        :class:`~repro.errors.ValidationError`) and the result is derived
        in ``O(rounds)`` arithmetic by :mod:`repro.analytic`, again
        bit-identical to the simulated paths.
    memo:
        Content-addressed conflict-report memoization
        (:class:`~repro.dmm.memo.ConflictMemo`). ``"auto"`` (default)
        creates a private memo so identical tile patterns within and across
        this sorter's sorts are scored once; pass an existing memo to share
        hits across sorters/sweep points, or ``None`` to disable
        memoization entirely. Only the vectorized path memoizes — with
        ``scoring="loop"`` or ``"analytic"`` the default resolves to
        ``None`` and an explicit memo is rejected (the oracle stays
        untouched; the analytic engine has its own caches). Memoized and
        unmemoized scoring are bit-identical (enforced by
        ``tests/sort/test_memoized_scoring.py``).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.sort.config import SortConfig
    >>> cfg = SortConfig(elements_per_thread=3, block_size=4, warp_size=4)
    >>> sorter = PairwiseMergeSort(cfg)
    >>> rng = np.random.default_rng(0)
    >>> data = rng.permutation(48)
    >>> result = sorter.sort(data)
    >>> bool(np.array_equal(result.values, np.sort(data)))
    True
    """

    def __init__(
        self,
        config: SortConfig,
        padding: int = 0,
        scoring: str = "vectorized",
        memo: ConflictMemo | None | str = "auto",
        mitigation=None,
    ):
        from repro.engine.registry import check_scoring
        from repro.mitigation.registry import reconcile_mitigation
        from repro.utils.validation import check_nonnegative_int

        self.config = config
        check_nonnegative_int(padding, "padding")
        # The registries are the one source of truth for scoring modes and
        # mitigation backends; the sorter takes concrete scorings ("auto"
        # routing happens a layer up, in
        # repro.engine.registry.resolve_scoring) and reconciles the legacy
        # padding knob with the mitigation spec in exactly one place.
        self.scoring = check_scoring(scoring, allow_auto=False)
        self.mitigation = reconcile_mitigation(mitigation, padding)
        native_pad = self.mitigation.native_padding
        #: Effective Dotsenko pad width; 0 for layouts the padding model
        #: cannot express (those route scoring through the explicit layout).
        self.padding = native_pad if native_pad is not None else 0
        #: The layout scoring applies; ``None`` for the identity layout,
        #: which skips the per-access call.
        self._layout = None if native_pad == 0 else self.mitigation
        if self.scoring == "analytic" and not self.mitigation.analytic_supported:
            raise ValidationError(
                "scoring='analytic' cannot model mitigation "
                f"{self.mitigation.spec!r}; use a simulated scoring "
                "(e.g. 'fused' or 'auto') for this layout"
            )
        self._analytic_engine = None
        if memo is None:
            self.memo: ConflictMemo | None = None
        elif isinstance(memo, str) and memo == "auto":
            self.memo = ConflictMemo() if scoring == "vectorized" else None
        elif isinstance(memo, ConflictMemo):
            if scoring != "vectorized":
                raise ValidationError(
                    "memoization applies only to scoring='vectorized'; "
                    f"scoring={scoring!r} stays memo-free"
                )
            self.memo = memo
        else:
            raise ValidationError(
                f"memo must be a ConflictMemo, None, or 'auto', got {memo!r}"
            )

    def _physical(self, step_matrix: np.ndarray) -> np.ndarray:
        """Logical tile addresses → physical addresses under the layout.

        Delegates to the mitigation backend's remap; the identity layout
        returns the matrix untouched. Dense ``(rows, w)`` matrices only —
        lane-aware backends key off the column index.
        """
        if self._layout is None:
            return step_matrix
        return self._layout.remap(step_matrix, self.config.warp_size)

    # -- public API ----------------------------------------------------------

    def sort(
        self,
        values: np.ndarray,
        *,
        score_blocks: int | None = None,
        seed: int | None = 0,
    ) -> SortResult:
        """Sort ``values``, recording full instrumentation.

        Parameters
        ----------
        values:
            Input keys; length must be ``bE × 2^k``.
        score_blocks:
            If given, trace at most this many tiles/blocks per round
            (deterministically spread via ``seed``); ``None`` traces all.
        seed:
            Seed for the sampled-block selection.
        """
        cfg = self.config
        arr = np.ascontiguousarray(values)
        n = cfg.validate_input_size(arr.size)
        check_no_nan(arr, "sort keys")
        if self.scoring == "analytic":
            # Closed-form path: recognize the input as a constructed family
            # and derive the result in O(rounds) arithmetic — bit-identical
            # to the simulated paths (tests/sort/test_analytic_equivalence).
            from repro.analytic import AnalyticEngine, detect_model

            model = detect_model(arr, cfg)
            if self._analytic_engine is None:
                self._analytic_engine = AnalyticEngine(
                    cfg, padding=self.padding
                )
            return self._analytic_engine.sort_result(
                model, score_blocks=score_blocks, seed=seed
            )
        rng = as_generator(seed)
        memo = self.memo
        if memo is not None:
            hits_base, misses_base = memo.hits, memo.misses

        result = SortResult(values=arr, config=cfg, num_elements=n)
        arr = self._base_register_phase(arr, result)

        run = cfg.E
        scratch = None
        while run < n:
            prev = arr
            arr, used_scratch = self._merge_round(
                arr, run, result, score_blocks, rng, scratch
            )
            # Native rounds ping-pong two per-sort buffers instead of
            # faulting in a fresh output array every round; the retired
            # pre-merge buffer becomes the next round's destination.
            scratch = prev if used_scratch else None
            run *= 2

        result.values = arr
        if memo is not None:
            result.memo_stats = memo.stats(
                hits_base=hits_base, misses_base=misses_base
            )
        return result

    # -- phases ----------------------------------------------------------

    def _base_register_phase(self, arr: np.ndarray, result: SortResult) -> np.ndarray:
        """Register-level odd-even sort of each thread's ``E`` elements."""
        cfg = self.config
        n = arr.size
        tiles = n // cfg.tile_size

        if self.scoring == "loop" or _has_both_zeros(arr):
            sorted_rows, comparator_ops = apply_oddeven_network(
                arr.reshape(-1, cfg.E)
            )
        else:
            # The network sorts each row and its comparator count is
            # input-independent (comparators × rows), so the fast paths
            # take a plain row sort — same instruction counter, none of
            # the per-comparator numpy passes. The values are bit-identical
            # whenever equal keys are identical bits: ``sort`` rejects NaN,
            # and inputs holding both -0.0 and +0.0 (equal, but ordered by
            # the network's comparator sequence) take the network above.
            sorted_rows = np.sort(arr.reshape(-1, cfg.E), axis=1)
            comparator_ops = len(oddeven_network(cfg.E)) * sorted_rows.shape[0]
        out = sorted_rows.reshape(-1)

        # Staging: thread t loads (then stores) addresses tE+j at step j.
        # The pattern is identical in every tile, so score one tile and
        # scale exactly by 2·tiles (load + store phases).
        step_matrix = thread_rank_addresses(
            np.arange(cfg.tile_size, dtype=np.int64), cfg.E
        )
        stacked = self._physical(stack_warp_steps(step_matrix, cfg.w))
        staging = count_conflicts(AccessTrace.from_dense(stacked), cfg.w)
        staging = staging.scaled(2 * tiles)

        # The base-case kernel reads and writes each element once.
        coalescing = CoalescingModel(cfg.w)
        coalescing.streamed_copy(n)
        coalescing.streamed_copy(n)

        result.rounds.append(
            RoundStats(
                label="base-registers",
                kind="registers",
                run_length=cfg.E,
                merge_report=ConflictReport.empty(cfg.w),
                partition_report=ConflictReport.empty(cfg.w),
                staging_report=staging,
                global_traffic=coalescing.reset(),
                compute_instructions=comparator_ops // cfg.w,
                blocks_total=tiles,
                blocks_scored=tiles,
            )
        )
        return out

    def _merge_round(
        self,
        arr: np.ndarray,
        run: int,
        result: SortResult,
        score_blocks: int | None,
        rng: np.random.Generator,
        scratch: np.ndarray | None = None,
    ) -> tuple[np.ndarray, bool]:
        """One pairwise merge round of runs of length ``run``.

        Returns ``(merged, used_scratch)``; when the native merge runs,
        ``merged`` lives in ``scratch`` (allocated here if not supplied)
        and the caller may recycle the retired pre-merge buffer.
        """
        cfg = self.config
        n = arr.size
        pair_width = 2 * run
        num_pairs = n // pair_width

        mat = arr.reshape(num_pairs, pair_width)
        block_round = pair_width <= cfg.tile_size
        if block_round:
            # Each tile holds ``per`` whole pair rows.
            per = cfg.tile_size // pair_width
            scored = _choose_blocks(num_pairs // per, score_blocks, rng)
        else:
            # Each pair row holds ``per`` global blocks.
            per = pair_width // cfg.tile_size
            scored = _choose_blocks(num_pairs * per, score_blocks, rng)

        used_scratch = False
        if (
            self.scoring == "fused"
            and self.mitigation.native_padding is not None
            and fused_kernels.native_round_ready(arr)
        ):
            # Native fused rounds never materialize the order array: the
            # merge is a row-wise two-pointer pass and the scorers
            # reconstruct each scored tile's interleaving locally.
            if scratch is None:
                scratch = np.empty_like(arr)
            merged = fused_kernels.merge_pairs(
                mat, run, scratch.reshape(num_pairs, pair_width)
            )
            order = None
            used_scratch = True
        else:
            # Stable argsort of [A | B] rows == stable (A-first) merge:
            # equal keys keep index order, and A occupies the lower indices.
            # ``order`` is needed only for the pair rows the scored tiles
            # read (the loop oracle indexes every row).
            if block_round:
                rows = (scored[:, None] * per + np.arange(per)).reshape(-1)
            else:
                rows = np.unique(scored // per)
            if self.scoring == "loop" or rows.size == num_pairs:
                order = np.argsort(mat, axis=1, kind="stable")
                merged = _gather_rows(arr, order)
            else:
                order = np.argsort(mat[rows], axis=1, kind="stable")
                merged = None

        if block_round:
            self._score_block_round(arr, order, run, result, scored)
        else:
            self._score_global_round(mat, order, run, result, scored)

        if merged is None:
            # Sampled round: only the scored rows were argsorted. A stable
            # row sort yields exactly the values the stable argsort would
            # gather (ties and signed zeros included); it runs in place,
            # once scoring no longer reads the pre-merge values.
            mat.sort(axis=1, kind="stable")
            merged = mat
        return merged.reshape(-1), used_scratch

    # -- block (base-case) rounds ---------------------------------------

    def _score_block_round(
        self,
        flat_pre: np.ndarray,
        order: np.ndarray | None,
        run: int,
        result: SortResult,
        scored: np.ndarray,
    ) -> None:
        """Score a block-level round: merges happen inside each tile.

        Tile layout during block rounds: pair ``g`` of a tile occupies the
        contiguous window ``[g·2L, (g+1)·2L)`` with its ``A`` run first, so
        the concatenated-pair index produced by ``order`` *is* the
        tile-local offset within the pair window. ``order`` holds the pair
        rows of the ``scored`` tiles, in order (every row for the loop
        oracle). ``order is None`` marks a native fused round: the merge
        already ran in the compiled backend, which also rebuilds each
        scored tile's interleaving.
        """
        cfg = self.config
        n = flat_pre.size
        pair_width = 2 * run
        tiles = n // cfg.tile_size
        pairs_per_tile = cfg.tile_size // pair_width

        if self.scoring == "loop":
            merge_report, part_report = self._block_reports_loop(
                flat_pre, order, run, scored, pairs_per_tile
            )
        elif order is None:
            merge_report, part_report = fused_kernels.fused_block_reports(
                flat_pre, scored, run, cfg.E, cfg.b, cfg.w, self.padding
            )
        else:
            # The (tiles, bE) rank→address map in one shot: pair base +
            # concatenated-pair index, per scored tile.
            order_tiles = order.reshape(scored.size, pairs_per_tile, pair_width)
            pair_bases = (
                np.arange(pairs_per_tile, dtype=np.int64)[:, None] * pair_width
            )
            addr_by_rank = (order_tiles + pair_bases).reshape(
                scored.size, cfg.tile_size
            )
            merge_report, part_report = self._counted_reports(
                "block",
                run,
                addr_by_rank,
                lambda pos: self._block_probe_counts(
                    flat_pre, run, scored[pos], pairs_per_tile
                ),
            )

        result.rounds.append(
            RoundStats(
                label=f"block-round-L{run}",
                kind="block",
                run_length=run,
                merge_report=merge_report,
                partition_report=part_report,
                staging_report=ConflictReport.empty(cfg.w),
                global_traffic=GlobalTraffic(),  # block rounds stay on-chip
                compute_instructions=3 * n // cfg.w,
                blocks_total=tiles,
                blocks_scored=len(scored),
            )
        )

    def _block_probe_counts(
        self,
        flat_pre: np.ndarray,
        run: int,
        scored: np.ndarray,
        pairs_per_tile: int,
    ) -> tuple:
        """β₁ probe counts (:func:`probe_tile_counts`) for the given tiles
        of a block round.

        Thread t of a tile bisects diagonal ``tE mod 2L`` of pair
        ``tE // 2L``; every scored tile's b lanes go through one call.
        """
        cfg = self.config
        pair_width = 2 * run
        num_scored = scored.size
        t_ranks = np.arange(cfg.b, dtype=np.int64) * cfg.E
        pair_in_tile = t_ranks // pair_width  # (b,)
        diagonals = t_ranks % pair_width
        local_base = pair_in_tile * pair_width
        pair_global = (
            scored[:, None] * pairs_per_tile + pair_in_tile[None, :]
        )  # (tiles, b)
        a_base = (pair_global * pair_width).reshape(-1)
        trace_a = np.broadcast_to(local_base, (num_scored, cfg.b)).reshape(-1)
        lanes = num_scored * cfg.b
        return probe_tile_counts(
            flat_pre,
            a_base=a_base,
            a_len=np.full(lanes, run, dtype=np.int64),
            b_base=a_base + run,
            b_len=np.full(lanes, run, dtype=np.int64),
            diagonals=np.broadcast_to(diagonals, (num_scored, cfg.b)).reshape(-1),
            trace_a_base=trace_a,
            trace_b_base=trace_a + run,
            num_groups=num_scored,
            warp_size=cfg.w,
            layout=self._layout,
        )

    def _block_reports_loop(
        self,
        flat_pre: np.ndarray,
        order: np.ndarray,
        run: int,
        scored: np.ndarray,
        pairs_per_tile: int,
    ) -> tuple[ConflictReport, ConflictReport]:
        """Tile-at-a-time reference implementation (the equivalence oracle)."""
        cfg = self.config
        pair_width = 2 * run

        merge_rows = []
        part_rows = []
        for tile in scored:
            p_lo = tile * pairs_per_tile
            p_hi = p_lo + pairs_per_tile
            # Tile-local address of each output rank = pair base + order.
            pair_bases = (
                np.arange(pairs_per_tile, dtype=np.int64)[:, None] * pair_width
            )
            addr_by_rank = (order[p_lo:p_hi] + pair_bases).reshape(-1)
            merge_rows.append(
                self._physical(
                    stack_warp_steps(
                        thread_rank_addresses(addr_by_rank, cfg.E), cfg.w
                    )
                )
            )

            # Thread-level partition: every thread bisects its diagonal of
            # its pair. Thread t -> pair (t·E // 2L), diagonal (t·E mod 2L).
            t_ranks = np.arange(cfg.b, dtype=np.int64) * cfg.E
            lane_pair = p_lo + t_ranks // pair_width
            diagonals = t_ranks % pair_width
            a_base = lane_pair * pair_width
            b_base = a_base + run
            lens = np.full(cfg.b, run, dtype=np.int64)
            local_base = (t_ranks // pair_width) * pair_width
            _, probe_steps = partition_many_with_trace(
                flat_pre,
                a_base=a_base,
                a_len=lens,
                b_base=b_base,
                b_len=lens,
                diagonals=diagonals,
                trace_a_base=local_base,
                trace_b_base=local_base + run,
            )
            if probe_steps.size:
                part_rows.append(
                    self._physical(stack_warp_steps(probe_steps, cfg.w))
                )

        return _score_stacked(merge_rows, cfg.w), _score_stacked(part_rows, cfg.w)

    # -- global rounds -----------------------------------------------------

    def _score_global_round(
        self,
        mat: np.ndarray,
        order: np.ndarray | None,
        run: int,
        result: SortResult,
        scored: np.ndarray,
    ) -> None:
        """Score a global round: each block merges a ``bE`` output quantile.

        ``order`` holds the distinct pair rows of the ``scored`` blocks, in
        ascending order (every row for the loop oracle). ``order is None``
        marks a native fused round: the compiled backend derives each
        scored block's A/B window split by merge-path binary search
        instead of reading the order array.
        """
        cfg = self.config
        num_pairs, pair_width = mat.shape
        n = num_pairs * pair_width
        blocks_per_pair = pair_width // cfg.tile_size
        blocks_total = num_pairs * blocks_per_pair

        if self.scoring == "loop":
            merge_report, part_report = self._global_reports_loop(
                mat, order, run, scored, blocks_per_pair
            )
        elif order is None:
            merge_report, part_report = fused_kernels.fused_global_reports(
                mat.reshape(-1), scored, run, cfg.E, cfg.b, cfg.w, self.padding
            )
        else:
            local, pairs, a_lo, b_lo, na = self._global_patterns(
                order, run, scored, blocks_per_pair
            )
            # A global block's memo key also binds its A-window length:
            # two blocks can share the permutation while splitting it
            # differently between windows, which changes the β₁ probes.
            merge_report, part_report = self._counted_reports(
                "global",
                run,
                local,
                lambda pos: self._global_probe_counts(
                    mat, run, pairs[pos], a_lo[pos], b_lo[pos], na[pos]
                ),
                extra=na,
            )

        # Global traffic: every element is read and written once (coalesced),
        # plus the block-level mutual binary searches in global memory.
        coalescing = CoalescingModel(cfg.w)
        coalescing.streamed_copy(n)
        coalescing.streamed_copy(n)
        probes_per_block = 2 * ceil_log2(run + 1)
        coalescing.scattered_access(blocks_total * probes_per_block)

        result.rounds.append(
            RoundStats(
                label=f"global-round-L{run}",
                kind="global",
                run_length=run,
                merge_report=merge_report,
                partition_report=part_report,
                staging_report=ConflictReport.empty(cfg.w),
                global_traffic=coalescing.reset(),
                compute_instructions=3 * n // cfg.w,
                blocks_total=blocks_total,
                blocks_scored=len(scored),
            )
        )

    def _global_patterns(
        self,
        order: np.ndarray,
        run: int,
        scored: np.ndarray,
        blocks_per_pair: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-scored-block rank→address patterns and window geometry.

        ``order`` holds the distinct pair rows of ``scored``, ascending.
        Returns ``(local, pairs, a_lo, b_lo, na)``: the ``(blocks, bE)``
        tile-local address map plus each block's owning pair and A/B window
        offsets/length, shared by the vectorized and memoized paths.
        """
        tile = self.config.tile_size

        pairs = scored // blocks_per_pair
        block_in_pair = scored % blocks_per_pair
        r_lo = block_in_pair * tile
        # Row i of ``order`` is the i-th distinct scored pair.
        pos = np.searchsorted(np.unique(pairs), pairs)

        # Per-row prefix counts of A-sourced ranks, for window arithmetic.
        # Blocks start at tile boundaries, so tile-granular counts suffice —
        # one reduction over the scored rows instead of a running sum.
        # Row i·blocks_per_pair + k of ``by_block`` is block k of row i.
        by_block = order.reshape(-1, tile)
        tile_counts = (by_block < run).sum(axis=1, dtype=np.int64).reshape(
            -1, blocks_per_pair
        )
        prefix = np.zeros(
            (tile_counts.shape[0], blocks_per_pair + 1), dtype=np.int64
        )
        np.cumsum(tile_counts, axis=1, out=prefix[:, 1:])

        s = by_block[pos * blocks_per_pair + block_in_pair]  # (blocks, tile)
        a_lo = prefix[pos, block_in_pair]
        na = tile_counts[pos, block_in_pair]
        b_lo = r_lo - a_lo
        # Tile layout: each block's A window at [0, na), B at [na, bE).
        local = s + np.where(
            s < run, -a_lo[:, None], (na - run - b_lo)[:, None]
        )
        return local, pairs, a_lo, b_lo, na

    def _global_probe_counts(
        self,
        mat: np.ndarray,
        run: int,
        pairs: np.ndarray,
        a_lo: np.ndarray,
        b_lo: np.ndarray,
        na: np.ndarray,
    ) -> tuple:
        """β₁ probe counts (:func:`probe_tile_counts`) for the given blocks
        of a global round.

        All blocks' diagonals go through one call against the flat
        pre-merge buffer (mat rows are contiguous windows of it).
        """
        cfg = self.config
        pair_width = mat.shape[1]
        tile = cfg.tile_size
        num_scored = pairs.size
        lanes = num_scored * cfg.b
        pair_base = pairs * pair_width
        return probe_tile_counts(
            mat.reshape(-1),
            a_base=np.repeat(pair_base + a_lo, cfg.b),
            a_len=np.repeat(na, cfg.b),
            b_base=np.repeat(pair_base + run + b_lo, cfg.b),
            b_len=np.repeat(tile - na, cfg.b),
            diagonals=np.tile(
                np.arange(cfg.b, dtype=np.int64) * cfg.E, num_scored
            ),
            trace_a_base=np.zeros(lanes, dtype=np.int64),
            trace_b_base=np.repeat(na, cfg.b),
            num_groups=num_scored,
            warp_size=cfg.w,
            layout=self._layout,
        )

    def _global_reports_loop(
        self,
        mat: np.ndarray,
        order: np.ndarray,
        run: int,
        scored: np.ndarray,
        blocks_per_pair: int,
    ) -> tuple[ConflictReport, ConflictReport]:
        """Block-at-a-time reference implementation (the equivalence oracle)."""
        cfg = self.config

        # Per-pair prefix counts of A-sourced ranks, for window arithmetic.
        src_a = order < run

        merge_rows = []
        part_rows = []
        for blk in scored:
            pair, x = divmod(int(blk), blocks_per_pair)
            r_lo = x * cfg.tile_size
            r_hi = r_lo + cfg.tile_size
            s = order[pair, r_lo:r_hi]
            from_a = src_a[pair, r_lo:r_hi]
            a_lo = int(src_a[pair, :r_lo].sum())
            na = int(from_a.sum())
            b_lo = r_lo - a_lo
            # Tile layout: the block's A window at [0, na), B at [na, bE).
            local = np.where(s < run, s - a_lo, na + (s - run - b_lo))
            merge_rows.append(
                self._physical(
                    stack_warp_steps(
                        thread_rank_addresses(local.astype(np.int64), cfg.E),
                        cfg.w,
                    )
                )
            )

            # β₁ stage: b threads bisect their diagonals over the tile.
            nb = cfg.tile_size - na
            diagonals = np.arange(cfg.b, dtype=np.int64) * cfg.E
            _, probe_steps = partition_many_with_trace(
                mat[pair],
                a_base=np.full(cfg.b, a_lo, dtype=np.int64),
                a_len=np.full(cfg.b, na, dtype=np.int64),
                b_base=np.full(cfg.b, run + b_lo, dtype=np.int64),
                b_len=np.full(cfg.b, nb, dtype=np.int64),
                diagonals=diagonals,
                trace_a_base=np.zeros(cfg.b, dtype=np.int64),
                trace_b_base=np.full(cfg.b, na, dtype=np.int64),
            )
            if probe_steps.size:
                part_rows.append(
                    self._physical(stack_warp_steps(probe_steps, cfg.w))
                )

        return _score_stacked(merge_rows, cfg.w), _score_stacked(part_rows, cfg.w)

    # -- counted scoring -------------------------------------------------

    def _counted_reports(
        self,
        kind: str,
        run: int,
        patterns: np.ndarray,
        probe_fn,
        extra: np.ndarray | None = None,
    ) -> tuple[ConflictReport, ConflictReport]:
        """A round's (merge, partition) reports from the counting kernels.

        ``patterns`` holds each scored tile's rank→address row;
        ``probe_fn(pos)`` runs :func:`probe_tile_counts` over the scored
        tiles at positions ``pos``. Without a memo every scored tile is
        counted and concatenated in scored order; with one, only tiles
        whose pattern digest misses the memo are counted.
        """
        cfg = self.config
        if self.memo is None:
            part_steps, _, accesses, requests, replays = probe_fn(slice(None))
            return (
                permutation_stage_report(patterns, cfg.E, cfg.w, self._layout),
                report_from_per_step(
                    cfg.w,
                    part_steps,
                    int(accesses.sum()),
                    int(requests.sum()),
                    int(replays.sum()),
                ),
            )
        context = ConflictMemo.context(
            kind,
            num_banks=cfg.w,
            elements_per_thread=cfg.E,
            run_length=run,
            padding=self.padding,
            mitigation=self.mitigation.spec,
        )
        keys = ConflictMemo.tile_digests(context, patterns, extra=extra)
        return self._reports_memoized(context, keys, patterns, probe_fn)

    # -- memoized scoring --------------------------------------------------

    def _reports_memoized(
        self,
        context: bytes,
        keys: list[bytes],
        patterns: np.ndarray,
        probe_fn,
    ) -> tuple[ConflictReport, ConflictReport]:
        """Shared tile/round memo machinery for both round kinds.

        ``keys`` digests each row of ``patterns``. Only tiles whose
        pattern digest misses the memo are scored — in one batched pass of
        :func:`~repro.dmm.fused.tile_merge_counts` and ``probe_fn``, whose
        per-tile counts become per-tile reports — and the round total is
        assembled from per-tile reports exactly as the unmemoized path
        would have counted it.
        """
        memo = self.memo
        hits_before, misses_before = memo.hits, memo.misses
        try:
            return self._reports_memoized_inner(context, keys, patterns, probe_fn)
        finally:
            # Attribute this round's lookups to the active layout so
            # `cache stats` can break memo traffic down per mitigation.
            ConflictMemo.record_mitigation(
                self.mitigation.spec,
                memo.hits - hits_before,
                memo.misses - misses_before,
            )

    def _reports_memoized_inner(
        self,
        context: bytes,
        keys: list[bytes],
        patterns: np.ndarray,
        probe_fn,
    ) -> tuple[ConflictReport, ConflictReport]:
        cfg = self.config
        memo = self.memo

        round_key = ConflictMemo.round_digest(context, keys)
        cached = memo.get_round(round_key)
        if cached is not None:
            return cached

        lookups = [memo.get_tile(k) for k in keys]
        miss_pos: list[int] = []
        seen: set[bytes] = set()
        for i, (key, pair) in enumerate(zip(keys, lookups)):
            if pair is None and key not in seen:
                seen.add(key)
                miss_pos.append(i)

        fresh: dict[bytes, tuple[ConflictReport, ConflictReport]] = {}
        if miss_pos:
            pos = np.asarray(miss_pos, dtype=np.int64)
            ranks = patterns.shape[1]
            merge_steps, merge_replays = tile_merge_counts(
                patterns[pos], cfg.E, cfg.w, self._layout
            )
            part_steps, tile_steps, accesses, requests, replays = probe_fn(pos)
            part_periods = np.split(part_steps, np.cumsum(tile_steps)[:-1])
            for j, i in enumerate(miss_pos):
                pair = (
                    report_from_per_step(
                        cfg.w, merge_steps[j], ranks, ranks, merge_replays[j]
                    ),
                    report_from_per_step(
                        cfg.w,
                        part_periods[j],
                        accesses[j],
                        requests[j],
                        replays[j],
                    ),
                )
                memo.put_tile(keys[i], pair)
                # FIFO eviction could drop a just-stored entry before the
                # assembly below re-reads it; keep this round's pairs
                # reachable locally.
                fresh[keys[i]] = pair

        pairs = [
            pair if pair is not None else fresh[key]
            for key, pair in zip(keys, lookups)
        ]
        assembled = (
            _assemble_reports([p[0] for p in pairs], keys, cfg.w),
            _assemble_reports([p[1] for p in pairs], keys, cfg.w),
        )
        memo.put_round(round_key, assembled)
        return assembled


def _choose_blocks(
    total: int, score_blocks: int | None, rng: np.random.Generator
) -> np.ndarray:
    """Pick which blocks of a round to trace.

    The RNG is consumed exactly when sampling happens (``score_blocks``
    given and strictly below ``total``) — never for validation or for
    trace-everything rounds. ``_merge_round`` calls this once per round,
    before merging, with identical arguments on every scoring path, which
    keeps sampled-block selection (and therefore the pooled-vs-serial
    bit-identity guarantee of :func:`repro.engine.execute_items`) stable
    across implementations; the draw order is pinned by
    ``tests/sort/test_pairwise.py``.
    """
    if score_blocks is not None and score_blocks < 1:
        # Bad user input, not a simulator inconsistency — rejected before
        # any short-circuit so validation never depends on round geometry.
        raise ValidationError(f"score_blocks must be >= 1, got {score_blocks}")
    if score_blocks is None or score_blocks >= total:
        return np.arange(total, dtype=np.int64)
    return np.sort(rng.choice(total, size=score_blocks, replace=False)).astype(
        np.int64
    )


def _has_both_zeros(arr: np.ndarray) -> bool:
    """Whether float keys hold both ``-0.0`` and ``+0.0``."""
    if arr.dtype.kind != "f":
        return False
    signs = np.signbit(arr[arr == 0])
    return bool(signs.any() and not signs.all())


def _gather_rows(flat: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``take_along_axis(flat.reshape(order.shape), order, axis=1)``.

    One flat ``take``: each row's offset is added to ``order`` in place
    and removed again afterwards, so no index-sized temporary is built.
    """
    offsets = np.arange(0, flat.size, order.shape[1])[:, None]
    order += offsets
    merged = np.take(flat, order)
    order -= offsets
    return merged


def _assemble_reports(
    reports: list[ConflictReport], keys: list[bytes], num_banks: int
) -> ConflictReport:
    """Fold per-tile reports (in scored order) into one round report.

    Stretches of consecutive tiles with the same pattern digest fold via
    :meth:`ConflictReport.scaled` — O(1) per stretch — so a periodic round
    assembles in time proportional to its distinct stretches, not its tile
    count, and the per-step sequence still materializes bit-identically to
    the batched single-pass count.
    """
    total = ConflictReport.empty(num_banks)
    i = 0
    n = len(reports)
    while i < n:
        j = i + 1
        while j < n and keys[j] == keys[i]:
            j += 1
        stretch = reports[i] if j - i == 1 else reports[i].scaled(j - i)
        total = total.merged(stretch)
        i = j
    return total


def _score_stacked(rows: list[np.ndarray], num_banks: int) -> ConflictReport:
    """Score a list of stacked warp-step matrices as one trace."""
    if not rows:
        return ConflictReport.empty(num_banks)
    dense = rows[0] if len(rows) == 1 else np.vstack(rows)
    return count_conflicts(AccessTrace.from_dense(dense), num_banks)
