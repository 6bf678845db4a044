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

* A merge round is computed for *all* pairs at once by one stable row
  sort — for two sorted halves this reproduces the stable (A-first) merge
  exactly. The scored tiles' shared-memory address maps come from stable
  ``argsort``\\ s (DESIGN.md §5): block rounds argsort the pair rows the
  scored tiles hold; global rounds argsort only each scored block's
  ``bE``-element merge window, whose A/B split two merge-path searches
  find (:func:`global_block_windows`, DESIGN.md §12). Where every pair
  row is argsorted anyway (the loop oracle, fully scored block rounds),
  the merged values are gathered through that order instead.
* A sampled sort's block rounds merge nothing but their scored tiles: a
  tile's pre-merge pair rows are its sorted run-wide chunks of the
  register phase's output, and one tile-row sort after the last block
  round feeds the global rounds
  (:meth:`PairwiseMergeSort._sampled_block_rounds`).
* Conflict scoring is warp-additive, so all scored blocks of a round are
  counted at once, per tile, by two numpy kernels —
  :func:`~repro.dmm.fused.tile_merge_counts` (merge stage) and
  :func:`~repro.mergepath.partition.probe_tile_counts` (β₁ probes,
  replayed from the splits the merge order fixes, no keys read) —
  with no traces or probe matrices; a run of adjacent tiles with equal
  rank→address rows is counted once (periodic inputs repeat one pattern
  across a round).
* ``score_blocks`` caps how many tiles/blocks per round are scored
  (global rounds still merge all of them); the constructed adversarial
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
from repro.dmm.trace import AccessTrace
from repro.errors import SimulationError, ValidationError
from repro.gpu.global_memory import CoalescingModel, GlobalTraffic
from repro.gpu.timing import KernelCost
from repro.mergepath import fused as fused_kernels
from repro.mergepath.kernels import stack_warp_steps, thread_rank_addresses
from repro.mergepath.partition import (
    partition_many_with_trace,
    prefix_splits,
    probe_tile_counts,
)
from repro.sort.config import SortConfig
from repro.sort.networks import apply_oddeven_network, oddeven_network
from repro.utils.bits import ceil_log2
from repro.utils.rng import as_generator
from repro.utils.validation import check_no_nan

__all__ = [
    "PairwiseMergeSort",
    "RoundStats",
    "SortResult",
    "block_probe_counts",
    "global_block_windows",
    "global_probe_counts",
]


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
    #: Always ``None``; kept so the wire encoding keeps its
    #: ``memo_stats: null`` field for existing readers.
    memo_stats: None = None

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
    mitigation:
        Shared-memory layout defense: a spec string or a
        :class:`~repro.mitigation.base.Mitigation` instance. ``"none"``
        (the default) is the stock Thrust/Modern GPU layout the paper
        attacks; ``"padding:N"`` is Dotsenko-style padding (``N``
        elements skipped per ``w`` logical cells — see
        :mod:`repro.mitigation.padding`); ``"cfree-sort"`` and
        ``"cfree-permute"`` are the conflict-free layouts. Every scoring
        path applies the
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
        :func:`~repro.mergepath.partition.probe_tile_counts`), once per
        run of adjacent equal tiles; ``"loop"`` is the original
        tile-at-a-time, trace-based reference implementation. Both produce
        bit-identical :class:`SortResult`\\ s (enforced by the equivalence
        tests) — keep ``"loop"`` around only as the oracle. ``"fused"``
        dispatches each round to the optional compiled backend
        (:mod:`repro.mergepath.fused`) when it is importable and
        ``REPRO_FORCE_NUMPY`` is unset, and otherwise runs the same
        counting kernels — again bit-identical, including the
        sampled-block RNG draw order. ``"analytic"`` skips trace
        simulation entirely: the input must be a recognized constructed
        family (sorted / strictly-decreasing / canonical sawtooth /
        worst-case — anything else raises
        :class:`~repro.errors.ValidationError`) and the result is derived
        in ``O(rounds)`` arithmetic by :mod:`repro.analytic`, again
        bit-identical to the simulated paths.

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
        *,
        scoring: str = "vectorized",
        mitigation="none",
    ):
        from repro.engine.registry import check_scoring
        from repro.mitigation.registry import create_mitigation

        self.config = config
        # The registries are the one source of truth for scoring modes and
        # mitigation backends; the sorter takes concrete scorings ("auto"
        # routing happens a layer up, in
        # repro.engine.registry.resolve_scoring).
        self.scoring = check_scoring(scoring, allow_auto=False)
        self.mitigation = create_mitigation(mitigation)
        native_pad = self.mitigation.native_padding
        #: Pad width handed to the native kernels and the analytic engine;
        #: 0 for layouts the padding model cannot express (those route
        #: scoring through the explicit layout).
        self._pad = native_pad if native_pad is not None else 0
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
                    cfg, padding=self._pad
                )
            return self._analytic_engine.sort_result(
                model, score_blocks=score_blocks, seed=seed
            )
        rng = as_generator(seed)

        result = SortResult(values=arr, config=cfg, num_elements=n)
        both_zeros = _has_both_zeros(arr)
        arr = self._base_register_phase(arr, result, both_zeros)

        run = cfg.E
        if (
            score_blocks is not None
            and score_blocks < n // cfg.tile_size
            and 2 * run <= cfg.tile_size
            and self.scoring != "loop"
            and not both_zeros
            and not self._native(arr)
        ):
            # Sampled block rounds read only their scored tiles, so only
            # those are merged (see _sampled_block_rounds).
            arr = self._sampled_block_rounds(arr, result, score_blocks, rng)
            run = cfg.tile_size
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
        return result

    # -- phases ----------------------------------------------------------

    def _native(self, arr: np.ndarray) -> bool:
        """Whether this sort's merge rounds run in the compiled backend."""
        return (
            self.scoring == "fused"
            and self.mitigation.native_padding is not None
            and fused_kernels.native_round_ready(arr)
        )

    def _base_register_phase(
        self, arr: np.ndarray, result: SortResult, both_zeros: bool
    ) -> np.ndarray:
        """Register-level odd-even sort of each thread's ``E`` elements.

        ``both_zeros`` says whether the keys hold both ``-0.0`` and
        ``+0.0`` (:func:`_has_both_zeros`).
        """
        cfg = self.config
        n = arr.size
        tiles = n // cfg.tile_size

        if self.scoring == "loop" or both_zeros:
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
        native = self._native(arr)
        order = merged = None
        if native:
            # Native fused rounds never materialize the order array: the
            # merge is a row-wise two-pointer pass and the scorers
            # reconstruct each scored tile's interleaving locally.
            if scratch is None:
                scratch = np.empty_like(arr)
            merged = fused_kernels.merge_pairs(
                mat, run, scratch.reshape(num_pairs, pair_width)
            )
            used_scratch = True
        elif self.scoring == "loop":
            # Stable argsort of [A | B] rows == stable (A-first) merge:
            # equal keys keep index order, and A occupies the lower indices.
            # The oracle indexes every pair row's ``order``.
            order = np.argsort(mat, axis=1, kind="stable")
            merged = _gather_rows(arr, order)
        elif block_round:
            # ``order`` is needed only for the pair rows the scored tiles
            # read. Global rounds need none: each scored block argsorts
            # just its own window (:func:`global_block_windows`).
            rows = (scored[:, None] * per + np.arange(per)).reshape(-1)
            if rows.size == num_pairs:
                order = np.argsort(mat, axis=1, kind="stable")
                merged = _gather_rows(arr, order)
            else:
                order = np.argsort(mat[rows], axis=1, kind="stable")

        if block_round:
            self._score_block_round(n, run, result, scored, order, arr)
        else:
            self._score_global_round(mat, order, run, result, scored, native)

        if merged is None:
            # A stable row sort yields exactly the values the stable
            # argsort would gather (ties and signed zeros included); it
            # runs in place, once scoring no longer reads the pre-merge
            # values.
            _sort_rows(mat, kind="stable")
            merged = mat
        return merged.reshape(-1), used_scratch

    def _sampled_block_rounds(
        self,
        arr: np.ndarray,
        result: SortResult,
        score_blocks: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """All block rounds of a sampled sort, merging only scored tiles.

        ``arr`` is the register phase's output, sorted ``E``-element rows.
        A tile's pre-merge pair rows in the round of run ``L`` are its
        ``L``-wide chunks, sorted: exactly what the earlier rounds'
        merges leave there. So each round sorts just its scored tiles'
        chunks, argsorts their pair rows and scores them, and no other
        tile is merged; one in-place sort of every tile then yields the
        first global round's input. Like the register phase's row sort,
        this is bit-identical to merging every round because equal keys
        are identical bits: ``sort`` rejects NaN, and inputs holding both
        ``-0.0`` and ``+0.0`` merge round by round instead. The blocks
        are chosen exactly as :meth:`_merge_round` chooses them.
        """
        cfg = self.config
        tiles = arr.reshape(-1, cfg.tile_size)
        run = cfg.E
        while 2 * run <= cfg.tile_size:
            scored = _choose_blocks(tiles.shape[0], score_blocks, rng)
            pairs = tiles[scored].reshape(-1, 2 * run)
            _sort_rows(pairs.reshape(-1, run))
            order = np.argsort(pairs, axis=1, kind="stable")
            self._score_block_round(arr.size, run, result, scored, order)
            run *= 2
        _sort_rows(tiles)
        return arr

    # -- block (base-case) rounds ---------------------------------------

    def _score_block_round(
        self,
        n: int,
        run: int,
        result: SortResult,
        scored: np.ndarray,
        order: np.ndarray | None,
        flat_pre: np.ndarray | None = None,
    ) -> None:
        """Score a block-level round of ``n`` elements: merges happen
        inside each tile.

        Tile layout during block rounds: pair ``g`` of a tile occupies the
        contiguous window ``[g·2L, (g+1)·2L)`` with its ``A`` run first, so
        the concatenated-pair index produced by ``order`` *is* the
        tile-local offset within the pair window. ``order`` holds the pair
        rows of the ``scored`` tiles, in order (every row for the loop
        oracle). ``order is None`` marks a native fused round: the merge
        already ran in the compiled backend, which also rebuilds each
        scored tile's interleaving. Only the loop oracle and the native
        scorer read ``flat_pre``, the pre-merge values.
        """
        cfg = self.config
        pair_width = 2 * run
        tiles = n // cfg.tile_size
        pairs_per_tile = cfg.tile_size // pair_width

        if self.scoring == "loop":
            merge_report, part_report = self._block_reports_loop(
                flat_pre, order, run, scored, pairs_per_tile
            )
        elif order is None:
            merge_report, part_report = fused_kernels.fused_block_reports(
                flat_pre, scored, run, cfg.E, cfg.b, cfg.w, self._pad
            )
        else:
            # The (tiles, bE) rank→address map in one shot: pair base +
            # concatenated-pair index, per scored tile.
            order_tiles = order.reshape(scored.size, cfg.tile_size)
            pair_bases = np.arange(0, cfg.tile_size, pair_width).repeat(pair_width)
            addr_by_rank = order_tiles + pair_bases
            merge_report, part_report = self._counted_reports(
                addr_by_rank,
                lambda pos: block_probe_counts(
                    order_tiles[pos], run, cfg, self._layout
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
        native: bool,
    ) -> None:
        """Score a global round: each block merges a ``bE`` output quantile.

        ``order`` holds every pair row's merge order; only the loop oracle
        reads it. The other paths derive each scored block's A/B window
        split by merge-path binary search — in the compiled backend when
        ``native``, else in :func:`global_block_windows`.
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
        elif native:
            merge_report, part_report = fused_kernels.fused_global_reports(
                mat.reshape(-1), scored, run, cfg.E, cfg.b, cfg.w, self._pad
            )
        else:
            local, na = global_block_windows(
                mat, run, scored, cfg.tile_size
            )
            # Equal global blocks must also share their A-window length:
            # two blocks can share the permutation while splitting it
            # differently between windows, which changes the β₁ probes.
            merge_report, part_report = self._counted_reports(
                local,
                lambda pos: global_probe_counts(
                    local[pos], na[pos], cfg, self._layout
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
        patterns: np.ndarray,
        probe_fn,
        extra: np.ndarray | None = None,
    ) -> tuple[ConflictReport, ConflictReport]:
        """A round's (merge, partition) reports from the counting kernels.

        ``patterns`` holds each scored tile's rank→address row;
        ``probe_fn(pos)`` runs :func:`probe_tile_counts` over the scored
        tiles at positions ``pos``. ``extra`` is one more per-tile column
        two tiles must share to count as one (the global rounds' A-window
        length). A tile's counts are a pure function of its row (DESIGN.md
        §14), so each run of adjacent equal rows is counted once — at its
        first tile — and its counts are repeated over the run. The result
        is the same single concatenated per-step segment, in scored order,
        as counting every tile; a round with no repeated row does exactly
        that.
        """
        cfg = self.config
        starts, lengths = _adjacent_runs(patterns, extra)
        if starts.size == patterns.shape[0]:
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
        merge_steps, merge_replays = tile_merge_counts(
            patterns[starts], cfg.E, cfg.w, self._layout
        )
        part_steps, tile_steps, accesses, requests, replays = probe_fn(starts)
        run_of_tile = np.repeat(np.arange(starts.size), lengths)
        return (
            report_from_per_step(
                cfg.w,
                merge_steps[run_of_tile].ravel(),
                patterns.size,
                patterns.size,
                int(merge_replays @ lengths),
            ),
            report_from_per_step(
                cfg.w,
                _repeat_segments(part_steps, tile_steps, lengths),
                int(accesses @ lengths),
                int(requests @ lengths),
                int(replays @ lengths),
            ),
        )


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


def block_probe_counts(
    order: np.ndarray, run: int, config: SortConfig, layout=None
) -> tuple:
    """β₁ probe counts (:func:`probe_tile_counts`) of block-round tiles.

    Row ``i`` of ``order`` is one tile's pair rows' stable merge orders,
    concatenated (``(tiles, bE)``; index ``< run`` is an ``A`` element).
    Thread ``t`` bisects diagonal ``tE mod 2L`` of pair ``tE // 2L``; its
    split is the count of ``A``-sourced ranks before that diagonal, read
    off ``order`` by :func:`prefix_splits`.
    """
    cfg = config
    tiles = order.shape[0]
    t_ranks = np.arange(cfg.b, dtype=np.int64) * cfg.E
    diagonals = t_ranks % (2 * run)
    pair_start = t_ranks - diagonals
    splits = prefix_splits(order < run, t_ranks, pair_start)
    lens = np.full(splits.size, run, dtype=np.int64)
    trace_a = np.tile(pair_start, tiles)
    return probe_tile_counts(
        splits.reshape(-1),
        a_len=lens,
        b_len=lens,
        diagonals=np.tile(diagonals, tiles),
        trace_a_base=trace_a,
        trace_b_base=trace_a + run,
        num_groups=tiles,
        warp_size=cfg.w,
        layout=layout,
    )


def global_probe_counts(
    local: np.ndarray, na: np.ndarray, config: SortConfig, layout=None
) -> tuple:
    """β₁ probe counts (:func:`probe_tile_counts`) of global-round blocks.

    Row ``i`` of ``local`` is a block's tile-local rank→address map, its
    ``A`` window at ``[0, na[i])`` and its ``B`` window after it. Thread
    ``t`` bisects diagonal ``tE`` of the block's windows; its split is
    the count of ``A``-sourced ranks before it.
    """
    cfg = config
    blocks = local.shape[0]
    diagonals = np.arange(cfg.b, dtype=np.int64) * cfg.E
    splits = prefix_splits(local < na[:, None], diagonals)
    a_len = np.repeat(na, cfg.b)
    return probe_tile_counts(
        splits.reshape(-1),
        a_len=a_len,
        b_len=cfg.tile_size - a_len,
        diagonals=np.tile(diagonals, blocks),
        trace_a_base=np.zeros(a_len.size, dtype=np.int64),
        trace_b_base=a_len,
        num_groups=blocks,
        warp_size=cfg.w,
        layout=layout,
    )


def global_block_windows(
    mat: np.ndarray, run: int, blocks: np.ndarray, tile_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-block rank→address patterns and A-window lengths of a global
    round.

    ``mat`` holds the round's pre-merge ``[A | B]`` pair rows (runs of
    ``run``); global block ``k`` merges output ranks ``[r_lo, r_lo + bE)``
    of pair row ``k // blocks_per_pair``. Two merge-path searches per
    block, at diagonals ``r_lo`` and ``r_lo + bE``, split those ranks
    between an A window ``[a_lo, a_lo + na)`` and a B window
    ``[b_lo, b_lo + bE − na)``. Laid out as in the tile, A first, the
    window's stable argsort is the stable (A-first) merge of the two, so
    it is the block's tile-local address map — no pair row is argsorted
    whole (DESIGN.md §12).

    Returns ``(local, na)``: the ``(blocks, bE)`` address map and each
    block's A-window length — everything the block's conflict scoring
    depends on.
    """
    pair_width = mat.shape[1]
    blocks_per_pair = pair_width // tile_size
    pairs = blocks // blocks_per_pair
    r_lo = blocks % blocks_per_pair * tile_size
    a_base = np.repeat(pairs * pair_width, 2)
    halves = np.full(a_base.size, run, dtype=np.int64)
    flat = mat.reshape(-1)
    split, _ = partition_many_with_trace(
        flat,
        a_base=a_base,
        a_len=halves,
        b_base=a_base + run,
        b_len=halves,
        diagonals=np.stack([r_lo, r_lo + tile_size], axis=1).reshape(-1),
    )
    a_lo = split[0::2]
    na = split[1::2] - a_lo
    b_lo = r_lo - a_lo
    # Flat index of window slot j: A[a_lo + j] for j < na, else
    # B[b_lo + j − na].
    slot = np.arange(tile_size, dtype=np.int64)
    a_start = pairs * pair_width + a_lo
    b_shift = run + b_lo - na - a_lo
    src = a_start[:, None] + slot
    src += np.where(slot >= na[:, None], b_shift[:, None], 0)
    local = np.argsort(flat[src], axis=1, kind="stable")
    return local, na


def _has_both_zeros(arr: np.ndarray) -> bool:
    """Whether float keys hold both ``-0.0`` and ``+0.0``."""
    if arr.dtype.kind != "f":
        return False
    signs = np.signbit(arr[arr == 0])
    return bool(signs.any() and not signs.all())


def _sort_rows(mat: np.ndarray, kind: str | None = None) -> None:
    """Sort every row of the 2-D ``mat`` in place."""
    mat.sort(axis=1, kind=kind)


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


def _adjacent_runs(
    rows: np.ndarray, extra: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, lengths)`` of the runs of adjacent equal rows.

    Two adjacent rows join one run when they are equal and, if ``extra``
    is given, so are their ``extra`` entries.
    """
    num = rows.shape[0]
    new_run = np.ones(num, dtype=bool)
    if num > 1:
        same = (rows[1:] == rows[:-1]).all(axis=1)
        if extra is not None:
            same &= extra[1:] == extra[:-1]
        new_run[1:] = ~same
    starts = np.flatnonzero(new_run)
    return starts, np.diff(starts, append=num)


def _repeat_segments(
    flat: np.ndarray, seg_lengths: np.ndarray, repeats: np.ndarray
) -> np.ndarray:
    """Concatenate segment ``i`` of ``flat`` ``repeats[i]`` times, in order.

    ``flat`` is the concatenation of segments of ``seg_lengths``.
    """
    seg_starts = np.cumsum(seg_lengths) - seg_lengths
    out_lengths = np.repeat(seg_lengths, repeats)
    out_offsets = np.cumsum(out_lengths) - out_lengths
    shift = np.repeat(seg_starts, repeats) - out_offsets
    return flat[np.arange(int(out_lengths.sum())) + np.repeat(shift, out_lengths)]


def _score_stacked(rows: list[np.ndarray], num_banks: int) -> ConflictReport:
    """Score a list of stacked warp-step matrices as one trace."""
    if not rows:
        return ConflictReport.empty(num_banks)
    dense = rows[0] if len(rows) == 1 else np.vstack(rows)
    return count_conflicts(AccessTrace.from_dense(dense), num_banks)
