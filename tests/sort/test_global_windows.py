"""Global-round block windows against the full-row derivation.

A global round's scored blocks take their tile-local rank→address maps
from :func:`~repro.sort.pairwise.global_block_windows`: two merge-path
searches per block find its A/B window split, and a stable argsort of
just that ``bE``-element window gives the map. The reference below is
the full-row derivation it replaced: stable-argsort every scored pair
row, then read each block's window split off prefix counts of A-sourced
ranks. The two must agree on every output, ties included; at sort level
the default path must equal the loop oracle, which still argsorts every
pair row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.inputs.generators import generate
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort, global_block_windows
from tests.engine.comparison import assert_results_identical


def full_row_patterns(mat, run, scored, tile):
    """``(local, na)`` from full-row stable argsorts."""
    blocks_per_pair = mat.shape[1] // tile
    pairs = scored // blocks_per_pair
    block_in_pair = scored % blocks_per_pair
    r_lo = block_in_pair * tile
    rows = np.unique(pairs)
    order = np.argsort(mat[rows], axis=1, kind="stable")
    # Row i of ``order`` is the i-th distinct scored pair.
    pos = np.searchsorted(rows, pairs)

    # Per-row prefix counts of A-sourced ranks, tile by tile.
    by_block = order.reshape(-1, tile)
    tile_counts = (by_block < run).sum(axis=1, dtype=np.int64).reshape(
        -1, blocks_per_pair
    )
    prefix = np.zeros((tile_counts.shape[0], blocks_per_pair + 1), dtype=np.int64)
    np.cumsum(tile_counts, axis=1, out=prefix[:, 1:])

    s = by_block[pos * blocks_per_pair + block_in_pair]  # (blocks, tile)
    a_lo = prefix[pos, block_in_pair]
    na = tile_counts[pos, block_in_pair]
    b_lo = r_lo - a_lo
    # Tile layout: each block's A window at [0, na), B at [na, bE).
    local = s + np.where(s < run, -a_lo[:, None], (na - run - b_lo)[:, None])
    return local, na


@st.composite
def global_rounds(draw):
    """Sorted ``[A | B]`` pair rows of a global round, plus scored blocks.

    Keys come from a handful of values, so runs of equal keys straddle
    the A/B boundary and the block boundaries.
    """
    tile = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12]))
    run = tile << draw(st.integers(0, 3))
    num_pairs = draw(st.integers(1, 3))
    keys = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    halves = np.sort(rng.integers(0, keys, size=(2 * num_pairs, run)), axis=1)
    mat = halves.reshape(num_pairs, 2 * run)
    total = num_pairs * 2 * run // tile
    scored = np.array(
        draw(st.lists(st.integers(0, total - 1), min_size=1, unique=True)),
        dtype=np.int64,
    )
    return mat, run, np.sort(scored), tile


@settings(max_examples=200, deadline=None)
@given(global_rounds())
def test_windows_match_full_row_derivation(case):
    mat, run, scored, tile = case
    expected = full_row_patterns(mat, run, scored, tile)
    got = global_block_windows(mat, run, scored, tile)
    for name, e, g in zip(("local", "na"), expected, got):
        np.testing.assert_array_equal(g, e, err_msg=name)
        assert g.dtype == np.int64, name


def test_windows_leave_the_pair_rows_untouched():
    mat = np.array([[0, 1, 1, 2, 0, 1, 1, 1]])
    before = mat.copy()
    global_block_windows(mat, 4, np.array([0, 1]), 4)
    np.testing.assert_array_equal(mat, before)


CONFIG = SortConfig(elements_per_thread=3, block_size=16, warp_size=8)
TILES = 8
MITIGATIONS = ["none", "padding:1", "cfree-sort", "cfree-permute"]


def signed_zeros(n):
    """Float keys holding both signed zeros among a few other values."""
    rng = np.random.default_rng(4)
    return rng.choice(np.array([-0.0, 0.0, -1.0, 1.0, 2.5]), size=n)


INPUTS = {
    "random": lambda n: generate("random", CONFIG, n, seed=3),
    "few-unique": lambda n: generate("few-unique", CONFIG, n, seed=3),
    "signed-zeros": signed_zeros,
}


@pytest.mark.parametrize("input_name", sorted(INPUTS))
@pytest.mark.parametrize("mitigation", MITIGATIONS)
@pytest.mark.parametrize("score_blocks", range(1, TILES + 1))
def test_default_path_matches_loop_oracle(input_name, mitigation, score_blocks):
    data = INPUTS[input_name](CONFIG.tile_size * TILES)
    oracle = PairwiseMergeSort(CONFIG, scoring="loop", mitigation=mitigation).sort(
        data, score_blocks=score_blocks, seed=9
    )
    result = PairwiseMergeSort(CONFIG, mitigation=mitigation).sort(
        data, score_blocks=score_blocks, seed=9
    )
    assert_results_identical(result, oracle)
    np.testing.assert_array_equal(
        np.signbit(result.values), np.signbit(oracle.values)
    )
