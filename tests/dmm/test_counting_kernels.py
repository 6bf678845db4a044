"""Property tests: the per-tile counting kernels equal trace-based scoring.

:func:`~repro.dmm.fused.tile_merge_counts` and
:func:`~repro.mergepath.partition.probe_tile_counts` score the merge and
partition (β₁) stages without building traces. Their ground truth is
``count_conflicts(AccessTrace.from_dense(...))`` over each tile's warp-step
matrix, remapped by the layout; for the β₁ stage that matrix is the dense
probe record of the value-driven search
(:func:`~repro.mergepath.partition.partition_many_with_trace`), whose
splits the value-free replay is given. The strategies cover every warp width the
presets use, ``E`` values with ``GCD(w, E) > 1`` and ``E > w/2`` (where the
paper's constructions live), duplicate keys (broadcast probes) and all
four mitigation backends.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dmm.conflicts import count_conflicts
from repro.dmm.fused import permutation_stage_report, tile_merge_counts
from repro.dmm.trace import AccessTrace
from repro.mergepath.kernels import (
    batched_rank_addresses,
    stack_group_warp_steps,
    stack_warp_steps,
)
from repro.mergepath import partition
from repro.errors import ValidationError
from repro.mergepath.partition import (
    partition_many_with_trace,
    prefix_splits,
    probe_tile_counts,
)
from repro.mitigation.registry import create_mitigation
from repro.sort.config import SortConfig
from repro.sort.pairwise import block_probe_counts
from repro.sort.serialize import reports_identical

MITIGATIONS = ("none", "padding:1", "cfree-sort", "cfree-permute")


def reference_report(dense: np.ndarray, layout, w: int):
    """Trace-based ground truth for one tile's stacked warp-step matrix."""
    return count_conflicts(AccessTrace.from_dense(layout.remap(dense, w)), w)


def assert_counts_match(per_step, accesses, requests, replays, report):
    assert np.array_equal(per_step, report.per_step_transactions)
    assert accesses == report.num_accesses
    assert requests == report.num_requests
    assert replays == report.total_replays


@st.composite
def geometry(draw):
    """``(w, E, warps per tile, tiles, mitigation)``."""
    w = draw(st.sampled_from([4, 8, 16, 32]))
    e = draw(st.integers(min_value=1, max_value=2 * w + 1))
    return (
        w,
        e,
        draw(st.integers(min_value=1, max_value=2)),
        draw(st.integers(min_value=1, max_value=3)),
        draw(st.sampled_from(MITIGATIONS)),
    )


class TestTileMergeCounts:
    @settings(max_examples=60, deadline=None)
    @given(geometry(), st.integers(min_value=0, max_value=2**32 - 1))
    @example((32, 16, 1, 2, "none"), 0)  # GCD(w, E) = 16 > 1, E = w/2
    @example((32, 24, 2, 1, "padding:1"), 1)  # GCD 8, E > w/2
    @example((16, 12, 1, 2, "cfree-sort"), 2)
    @example((8, 6, 2, 2, "cfree-permute"), 3)
    def test_matches_trace_scoring_per_tile(self, geom, seed):
        w, e, warps, tiles, spec = geom
        layout = create_mitigation(spec)
        rng = np.random.default_rng(seed)
        ranks = warps * w * e
        # Rank→address rows are permutations of the tile; the constructed
        # worst case reads whole bank columns, so mix in sorted rows too.
        rows = np.stack(
            [
                np.arange(ranks) if t % 2 else rng.permutation(ranks)
                for t in range(tiles)
            ]
        ).astype(np.int64)
        per_step, replays = tile_merge_counts(rows, e, w, layout)
        assert per_step.shape == (tiles, warps * e)
        for t in range(tiles):
            dense = stack_warp_steps(batched_rank_addresses(rows[t : t + 1], e), w)
            ref = reference_report(dense, layout, w)
            assert_counts_match(per_step[t], ranks, ranks, replays[t], ref)

    @settings(max_examples=30, deadline=None)
    @given(geometry(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_concatenated_report_is_the_stacked_trace(self, geom, seed):
        w, e, warps, tiles, spec = geom
        layout = create_mitigation(spec)
        rng = np.random.default_rng(seed)
        ranks = warps * w * e
        rows = np.stack([rng.permutation(ranks) for _ in range(tiles)])
        got = permutation_stage_report(rows, e, w, layout)
        ref = reference_report(
            stack_warp_steps(batched_rank_addresses(rows, e), w), layout, w
        )
        assert reports_identical(got, ref)


def block_searches(rng, w, e, warps, tiles, alphabet):
    """One merge-path search per lane, laid out like a block round.

    Each tile of ``b = warps·w`` lanes merges pairs of sorted runs of
    length ``L = E·2^k`` from a flat buffer; lane ``t`` bisects diagonal
    ``tE mod 2L`` of pair ``tE // 2L``. Probe addresses are tile-local, so
    lanes of one warp can probe the same address (a broadcast) —
    especially with few distinct keys. Returns the value-driven search's
    arguments and each tile's pair rows' stable merge orders,
    concatenated (``(tiles, bE)``).
    """
    b = warps * w
    run = e << int(rng.integers(0, b.bit_length() - 1))
    t_ranks = np.arange(b, dtype=np.int64) * e
    pair_in_tile = t_ranks // (2 * run)
    pairs_per_tile = b * e // (2 * run)
    values = np.sort(
        rng.integers(0, alphabet, size=(tiles * pairs_per_tile, 2, run)), axis=2
    ).reshape(-1)
    order = np.argsort(values.reshape(-1, 2 * run), axis=1, kind="stable")
    pair_global = np.arange(tiles)[:, None] * pairs_per_tile + pair_in_tile
    a_base = (pair_global * 2 * run).reshape(-1)
    local = np.tile(pair_in_tile * 2 * run, tiles)
    lanes = tiles * b
    search = dict(
        values=values,
        a_base=a_base,
        a_len=np.full(lanes, run, dtype=np.int64),
        b_base=a_base + run,
        b_len=np.full(lanes, run, dtype=np.int64),
        diagonals=np.tile(t_ranks % (2 * run), tiles),
        trace_a_base=local,
        trace_b_base=local + run,
    )
    return search, order.reshape(tiles, b * e)


def replay_args(search, splits):
    """``probe_tile_counts`` arguments for ``search``'s lanes: the
    value-free part of the search plus the lanes' known splits."""
    keep = ("a_len", "b_len", "diagonals", "trace_a_base", "trace_b_base")
    return dict(splits=splits, **{k: search[k] for k in keep})


class TestProbeTileCounts:
    @settings(max_examples=80, deadline=None)
    @given(
        geometry(),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=partition.PROBE_TABLE_CAP),
        st.sampled_from([0, 2**30]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example((32, 16, 1, 2, "none"), 2, partition.PROBE_TABLE_CAP, 0, 0)
    @example((32, 24, 2, 1, "padding:1"), 3, 1, 0, 1)
    @example((16, 12, 1, 2, "cfree-sort"), 1, 2**10, 2**30, 2)
    @example((8, 6, 2, 2, "cfree-permute"), 2, 1, 2**30, 3)
    @example((4, 2, 2, 3, "none"), 1, 7, 0, 4)  # every key equal
    def test_matches_trace_scoring_per_tile(
        self, geom, alphabet, table_cap, far, seed
    ):
        """The split-driven replay scores exactly the dense probe matrix
        of the value-driven search it replaces.

        ``table_cap`` sets how many bisection iterations one counting
        pass batches (1 → one iteration per pass, as on wide rounds);
        ``far`` moves the probe addresses past 2^30 so the sort keys
        need 64 bits."""
        w, e, warps, tiles, spec = geom
        layout = create_mitigation(spec)
        search, _ = block_searches(
            np.random.default_rng(seed), w, e, warps, tiles, alphabet
        )
        search["trace_a_base"] = search["trace_a_base"] + far
        search["trace_b_base"] = search["trace_b_base"] + far
        splits, dense = partition_many_with_trace(**search)
        with mock.patch.object(partition, "PROBE_TABLE_CAP", table_cap):
            counts = probe_tile_counts(
                **replay_args(search, splits),
                num_groups=tiles,
                warp_size=w,
                layout=layout,
            )
        per_step, tile_steps, accesses, requests, replays = counts
        group = warps * w
        periods = np.split(per_step, np.cumsum(tile_steps)[:-1])
        for t in range(tiles):
            # Each tile on its own: trailing idle steps trimmed, warps stacked.
            tile_dense = stack_group_warp_steps(
                dense[:, t * group : (t + 1) * group], 1, w
            )
            assert tile_steps[t] == tile_dense.shape[0]
            ref = reference_report(tile_dense, layout, w)
            assert_counts_match(
                periods[t], accesses[t], requests[t], replays[t], ref
            )

    @settings(max_examples=60, deadline=None)
    @given(
        geometry(),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_prefix_splits_equal_the_searches(self, geom, alphabet, seed):
        """Splits read off the stable merge order are the value-driven
        bisection's, and the sort's block-round counter built on them
        equals the replay of the searched splits."""
        w, e, warps, tiles, spec = geom
        layout = create_mitigation(spec)
        search, order = block_searches(
            np.random.default_rng(seed), w, e, warps, tiles, alphabet
        )
        splits, _ = partition_many_with_trace(**search)
        b = warps * w
        run = int(search["a_len"][0])
        t_ranks = np.arange(b, dtype=np.int64) * e
        pair_start = t_ranks - t_ranks % (2 * run)
        got = prefix_splits(order < run, t_ranks, pair_start)
        assert np.array_equal(got.reshape(-1), splits)

        config = SortConfig(elements_per_thread=e, block_size=b, warp_size=w)
        sort_counts = block_probe_counts(order, run, config, layout)
        replayed = probe_tile_counts(
            **replay_args(search, splits),
            num_groups=tiles,
            warp_size=w,
            layout=layout,
        )
        for got_counter, want in zip(sort_counts, replayed):
            assert np.array_equal(got_counter, want)

    def test_identity_layout_equals_none_backend(self):
        search, _ = block_searches(np.random.default_rng(5), 8, 6, 2, 3, 2)
        splits, _ = partition_many_with_trace(**search)
        args = replay_args(search, splits)
        plain = probe_tile_counts(**args, num_groups=3, warp_size=8)
        none = probe_tile_counts(
            **args, num_groups=3, warp_size=8, layout=create_mitigation("none")
        )
        for a, b in zip(plain, none):
            assert np.array_equal(a, b)

    def test_converged_lanes_only_yield_empty_counts(self):
        lanes = 8
        zeros = np.zeros(lanes, dtype=np.int64)
        per_step, tile_steps, accesses, requests, replays = probe_tile_counts(
            zeros,
            a_len=zeros,
            b_len=zeros + 4,
            diagonals=zeros,
            trace_a_base=zeros,
            trace_b_base=zeros,
            num_groups=2,
            warp_size=4,
        )
        assert per_step.size == 0
        for counter in (tile_steps, accesses, requests, replays):
            assert np.array_equal(counter, [0, 0])

    def test_split_outside_the_search_range_is_rejected(self):
        lanes = 4
        zeros = np.zeros(lanes, dtype=np.int64)
        with pytest.raises(ValidationError):
            probe_tile_counts(
                zeros + 3,  # diagonal 2 can take at most 2 A elements
                a_len=zeros + 4,
                b_len=zeros + 4,
                diagonals=zeros + 2,
                trace_a_base=zeros,
                trace_b_base=zeros + 4,
                num_groups=1,
                warp_size=4,
            )
