"""The closed-form analytic scoring engine.

Derives a complete :class:`~repro.sort.pairwise.SortResult` for an
analytic-eligible input family in ``O(rounds)`` arithmetic — no trace
simulation over the ``N`` elements. The result is **bit-identical** to
``PairwiseMergeSort(scoring="vectorized")`` on the same input (enforced by
``tests/sort/test_analytic_equivalence.py``), because every number still
comes from the simulator's own primitives, just applied to one
representative tile per *pattern class* instead of to every block:

* the family model (:mod:`repro.analytic.families`) gives each round's
  from-A mask in closed form; all pairs share it, and a global round's
  blocks fall into at most a few period-phase classes;
* each class's merge stage is the mask's rank→address row scored by the
  same :func:`~repro.dmm.fused.tile_merge_counts` kernel the simulator
  uses for each run of equal tiles;
* the β₁ partition probes go through the simulator's own
  :func:`~repro.sort.pairwise.block_probe_counts` /
  :func:`~repro.sort.pairwise.global_probe_counts`, which replay each
  thread's bisection from the split its class ``order``/``local`` map
  fixes — the same replay the simulator runs, so the probe sequence
  (and its counts) is identical to the real data's;
* the round total folds class reports with
  :meth:`~repro.dmm.conflicts.ConflictReport.scaled` /
  :meth:`~repro.dmm.conflicts.ConflictReport.merged` in block order —
  materializing the same per-step sequence the batched pass counts;
* block sampling consumes the RNG exactly like the simulator's
  ``_choose_blocks`` (a draw happens only when sampling actually
  restricts), so sampled results match draw for draw;
* global traffic, compute instructions and the base register phase are
  the simulator's own closed forms.

Class and round reports are cached inside the engine, so a size sweep pays
the (already tiny) per-class scoring once and every further point is a few
dictionary lookups per round — microseconds, against ~100 ms for a
simulated service request. Because nothing iterates over elements, exact
results at sizes like ``2^34`` cost the same as at ``2^17``.
"""

from __future__ import annotations

import numpy as np

from repro.analytic.families import FamilyModel
from repro.dmm.conflicts import ConflictReport, count_conflicts
from repro.dmm.fused import report_from_per_step, tile_merge_counts
from repro.dmm.trace import AccessTrace
from repro.errors import ValidationError
from repro.gpu.global_memory import CoalescingModel, GlobalTraffic
from repro.mergepath.kernels import stack_warp_steps, thread_rank_addresses
from repro.mitigation.padding import PaddingMitigation, pad_addresses
from repro.sort.config import SortConfig
from repro.sort.networks import oddeven_network
from repro.sort.pairwise import (
    RoundStats,
    SortResult,
    block_probe_counts,
    global_probe_counts,
)
from repro.utils.bits import ceil_log2
from repro.utils.rng import as_generator
from repro.utils.validation import check_nonnegative_int

__all__ = ["AnalyticEngine"]


class AnalyticEngine:
    """Closed-form scorer for one ``(config, padding)`` pair.

    Create once and reuse: the per-class and per-round report caches make
    repeated points (a size sweep, a stream of service requests) nearly
    free. The engine is deterministic and side-effect free apart from its
    internal caches.
    """

    def __init__(self, config: SortConfig, padding: int = 0):
        self.config = config
        self.padding = check_nonnegative_int(padding, "padding")
        #: The padding layout the counting kernels apply (``None``: identity).
        self._layout = PaddingMitigation(self.padding) if self.padding else None
        #: class key -> (merge_report, partition_report) for one block/tile
        self._class_reports: dict[tuple, tuple[ConflictReport, ConflictReport]] = {}
        #: (plan, factor) -> assembled round report pair
        self._round_reports: dict[tuple, tuple[ConflictReport, ConflictReport]] = {}
        #: single-tile staging report of the base register phase (unscaled)
        self._staging_tile: ConflictReport | None = None
        #: fully-assembled RoundStats for deterministic (unsampled) rounds,
        #: keyed by (kind, run, n, mask key); RoundStats and its reports are
        #: never mutated after construction, so sharing one instance across
        #: results is safe and makes warm repeat points a dict lookup per
        #: round.
        self._stats_cache: dict[tuple, RoundStats] = {}

    # -- public API ----------------------------------------------------------

    def sort_result(
        self,
        model: FamilyModel,
        *,
        score_blocks: int | None = None,
        seed: int | None = 0,
        include_values: bool = True,
    ) -> SortResult:
        """Derive the full :class:`SortResult` for ``model``.

        Mirrors ``PairwiseMergeSort.sort`` parameter for parameter;
        ``include_values=False`` skips materializing the ``O(N)`` sorted
        output (the bench runner's huge-``N`` path — every counter is
        still exact).
        """
        cfg = self.config
        n = cfg.validate_input_size(model.num_elements)
        if model.config != cfg:
            raise ValidationError(
                f"model built for config {model.config!r} cannot be scored "
                f"under {cfg!r}"
            )
        rng = as_generator(seed)
        values = (
            model.output_values()
            if include_values
            else np.empty(0, dtype=np.int64)
        )
        result = SortResult(values=values, config=cfg, num_elements=n)
        result.rounds.append(self._base_round(n))
        run = cfg.E
        while run < n:
            mask = model.round_mask(run)
            if 2 * run <= cfg.tile_size:
                result.rounds.append(
                    self._block_round(mask, run, n, score_blocks, rng)
                )
            else:
                result.rounds.append(
                    self._global_round(mask, run, n, score_blocks, rng)
                )
            run *= 2
        return result

    # -- phases --------------------------------------------------------------

    def _base_round(self, n: int) -> RoundStats:
        """The register phase: one staged tile, scaled to the whole input."""
        cfg = self.config
        cached = self._stats_cache.get(("registers", n))
        if cached is not None:
            return cached
        tiles = n // cfg.tile_size
        if self._staging_tile is None:
            step_matrix = thread_rank_addresses(
                np.arange(cfg.tile_size, dtype=np.int64), cfg.E
            )
            stacked = self._physical(stack_warp_steps(step_matrix, cfg.w))
            self._staging_tile = count_conflicts(
                AccessTrace.from_dense(stacked), cfg.w
            )
        comparator_ops = len(oddeven_network(cfg.E)) * (n // cfg.E)
        coalescing = CoalescingModel(cfg.w)
        coalescing.streamed_copy(n)
        coalescing.streamed_copy(n)
        stats = self._stats_cache[("registers", n)] = RoundStats(
            label="base-registers",
            kind="registers",
            run_length=cfg.E,
            merge_report=ConflictReport.empty(cfg.w),
            partition_report=ConflictReport.empty(cfg.w),
            staging_report=self._staging_tile.scaled(2 * tiles),
            global_traffic=coalescing.reset(),
            compute_instructions=comparator_ops // cfg.w,
            blocks_total=tiles,
            blocks_scored=tiles,
        )
        return stats

    def _block_round(
        self, mask, run: int, n: int, score_blocks: int | None, rng
    ) -> RoundStats:
        """One block-level round: a single pattern class across all tiles."""
        cfg = self.config
        tiles = n // cfg.tile_size
        count, idx = _select_blocks(tiles, score_blocks, rng)
        if idx is None:
            stats_key = ("block", run, n, mask.key)
            cached = self._stats_cache.get(stats_key)
            if cached is not None:
                return cached
        scored = count if idx is None else idx.size
        key = ("block", run, mask.key)
        if key not in self._class_reports:
            self._class_reports[key] = self._score_block_class(mask, run)
        merge, part = self._fold(((key, scored),), 1)
        stats = RoundStats(
            label=f"block-round-L{run}",
            kind="block",
            run_length=run,
            merge_report=merge,
            partition_report=part,
            staging_report=ConflictReport.empty(cfg.w),
            global_traffic=GlobalTraffic(),  # block rounds stay on-chip
            compute_instructions=3 * n // cfg.w,
            blocks_total=tiles,
            blocks_scored=scored,
        )
        if idx is None:
            self._stats_cache[stats_key] = stats
        return stats

    def _global_round(
        self, mask, run: int, n: int, score_blocks: int | None, rng
    ) -> RoundStats:
        """One global round: fold the mask's phase classes in block order."""
        cfg = self.config
        tile = cfg.tile_size
        blocks_per_pair = (2 * run) // tile
        num_pairs = n // (2 * run)
        blocks_total = num_pairs * blocks_per_pair
        count, idx = _select_blocks(blocks_total, score_blocks, rng)

        if idx is None:
            stats_key = ("global", run, n, mask.key)
            cached = self._stats_cache.get(stats_key)
            if cached is not None:
                return cached
            pair_plan, repeats = mask.global_pair_plan(tile, run)
            factor = repeats * num_pairs
        else:
            ids = mask.global_class_of(idx % blocks_per_pair, tile, run)
            pair_plan = _rle(ids.tolist())
            factor = 1
        plan = tuple(
            (("global", mask.key, class_id), stretch)
            for class_id, stretch in pair_plan
        )
        for key, _ in plan:
            if key not in self._class_reports:
                local, na = mask.global_geometry(key[2], tile)
                self._class_reports[key] = self._score_global_class(local, na)
        merge, part = self._fold(plan, factor)

        coalescing = CoalescingModel(cfg.w)
        coalescing.streamed_copy(n)
        coalescing.streamed_copy(n)
        probes_per_block = 2 * ceil_log2(run + 1)
        coalescing.scattered_access(blocks_total * probes_per_block)
        stats = RoundStats(
            label=f"global-round-L{run}",
            kind="global",
            run_length=run,
            merge_report=merge,
            partition_report=part,
            staging_report=ConflictReport.empty(cfg.w),
            global_traffic=coalescing.reset(),
            compute_instructions=3 * n // cfg.w,
            blocks_total=blocks_total,
            blocks_scored=count if idx is None else idx.size,
        )
        if idx is None:
            self._stats_cache[stats_key] = stats
        return stats

    # -- class scoring (simulator primitives on one representative tile) ----

    def _physical(self, step_matrix: np.ndarray) -> np.ndarray:
        if not self.padding:
            return step_matrix
        return pad_addresses(step_matrix, self.config.warp_size, self.padding)

    def _tile_reports(
        self, row: np.ndarray, probe_counts: tuple
    ) -> tuple[ConflictReport, ConflictReport]:
        """Score one tile's rank→address row + β₁ probe counts, exactly as
        the simulator scores the first tile of a run."""
        cfg = self.config
        merge_steps, merge_replays = tile_merge_counts(
            row[None, :], cfg.E, cfg.w, self._layout
        )
        merge = report_from_per_step(
            cfg.w, merge_steps[0], row.size, row.size, merge_replays[0]
        )
        part_steps, _, accesses, requests, replays = probe_counts
        part = report_from_per_step(
            cfg.w, part_steps, accesses[0], requests[0], replays[0]
        )
        return merge, part

    def _score_block_class(
        self, mask, run: int
    ) -> tuple[ConflictReport, ConflictReport]:
        """Representative tile of a block round (all tiles are identical)."""
        cfg = self.config
        pair_width = 2 * run
        pairs_per_tile = cfg.tile_size // pair_width
        order = np.tile(mask.block_order(run), pairs_per_tile)
        pair_bases = np.arange(0, cfg.tile_size, pair_width).repeat(pair_width)
        probe_counts = block_probe_counts(order[None, :], run, cfg, self._layout)
        return self._tile_reports(order + pair_bases, probe_counts)

    def _score_global_class(
        self, local: np.ndarray, na: int
    ) -> tuple[ConflictReport, ConflictReport]:
        """Representative block of one global-round phase class."""
        probe_counts = global_probe_counts(
            local[None, :], np.array([na], dtype=np.int64), self.config,
            self._layout,
        )
        return self._tile_reports(local, probe_counts)

    # -- assembly ------------------------------------------------------------

    def _fold(
        self, plan: tuple, factor: int
    ) -> tuple[ConflictReport, ConflictReport]:
        """Fold class reports per ``plan`` stretches, then scale the whole
        sequence by ``factor`` — materialized-identical to the simulator's
        per-block assembly (``_assemble_reports``) over the same round."""
        cached = self._round_reports.get((plan, factor))
        if cached is not None:
            return cached
        cfg = self.config
        merge = ConflictReport.empty(cfg.w)
        part = ConflictReport.empty(cfg.w)
        for key, count in plan:
            class_merge, class_part = self._class_reports[key]
            merge = merge.merged(
                class_merge if count == 1 else class_merge.scaled(count)
            )
            part = part.merged(
                class_part if count == 1 else class_part.scaled(count)
            )
        if factor != 1:
            merge = merge.scaled(factor)
            part = part.scaled(factor)
        assembled = (merge, part)
        self._round_reports[(plan, factor)] = assembled
        return assembled


def _select_blocks(
    total: int, score_blocks: int | None, rng: np.random.Generator
):
    """Replicate ``repro.sort.pairwise._choose_blocks`` semantics without
    materializing the trace-everything index vector.

    Returns ``(total, None)`` when every block is scored (no RNG draw —
    exactly like the simulator) and ``(k, sorted_indices)`` when sampling;
    the draw is bit-identical to the simulator's, which keeps sampled
    analytic results matching the traced ones draw for draw.
    """
    if score_blocks is not None and score_blocks < 1:
        raise ValidationError(f"score_blocks must be >= 1, got {score_blocks}")
    if score_blocks is None or score_blocks >= total:
        return total, None
    idx = np.sort(rng.choice(total, size=score_blocks, replace=False)).astype(
        np.int64
    )
    return score_blocks, idx


def _rle(ids: list) -> list[tuple[int, int]]:
    """Run-length encode class ids in order (sampled-round fold plans)."""
    plan: list[tuple[int, int]] = []
    for i in ids:
        i = int(i)
        if plan and plan[-1][0] == i:
            plan[-1] = (i, plan[-1][1] + 1)
        else:
            plan.append((i, 1))
    return plan
