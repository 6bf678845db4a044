"""Sampled merge rounds against the loop oracle.

A sampled sort's block rounds (``score_blocks`` below the tile count)
merge only their scored tiles: each sorts those tiles' pre-merge runs
and argsorts their pair rows, and one tile-row sort after the last
block round yields the global rounds' input. A block round whose scored
tiles cover every pair row argsorts every row. Global rounds never
argsort a whole pair row: each scored block argsorts its own merge
window, and the merged values come from the row sort. Either way the result must match
the loop oracle — which always argsorts every row — in values, counters
and per-step costs, for every sample size from one tile up to all of
them.
"""

import numpy as np
import pytest

import repro.sort.pairwise as pairwise_mod
from repro.inputs.generators import generate
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort
from tests.engine.comparison import assert_results_identical

CONFIG = SortConfig(elements_per_thread=3, block_size=16, warp_size=8)
TILES = 8  # block rounds and three global rounds, each over 8 tiles/blocks


def _sort(scoring, data, score_blocks, seed=5):
    return PairwiseMergeSort(CONFIG, scoring=scoring).sort(
        data, score_blocks=score_blocks, seed=seed
    )


@pytest.mark.parametrize("scoring", ["vectorized", "fused"])
@pytest.mark.parametrize("name", ["random", "few-unique", "worst-case"])
@pytest.mark.parametrize("score_blocks", [1, 2, 3, TILES - 1, TILES])
def test_matches_loop_oracle(monkeypatch, scoring, name, score_blocks):
    data = generate(name, CONFIG, CONFIG.tile_size * TILES, seed=11)
    oracle = _sort("loop", data, score_blocks)
    assert {r.kind for r in oracle.rounds} >= {"block", "global"}

    gathered = []
    original = pairwise_mod._gather_rows

    def counting(flat, order):
        gathered.append(order.shape)
        return original(flat, order)

    # Every row sort and argsort the sorter runs, as (rows, width).
    sorted_rows = []
    sort_rows = pairwise_mod._sort_rows

    def counting_sort(mat, kind=None):
        sorted_rows.append(mat.shape)
        sort_rows(mat, kind)

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def argsort(self, a, *args, **kwargs):
            sorted_rows.append(a.shape)
            return np.argsort(a, *args, **kwargs)

    monkeypatch.setattr(pairwise_mod, "_gather_rows", counting)
    monkeypatch.setattr(pairwise_mod, "_sort_rows", counting_sort)
    monkeypatch.setattr(pairwise_mod, "np", CountingNumpy())
    result = _sort(scoring, data, score_blocks)
    monkeypatch.undo()
    assert_results_identical(result, oracle)

    native = scoring == "fused" and pairwise_mod.fused_kernels.native_round_ready(
        data
    )
    if score_blocks < TILES and not native:
        # Sampled block rounds sort and argsort only their scored tiles'
        # elements; the one larger sort no wider than a tile is the tile-row
        # sort after the last block round. (Wider sorts are global rounds.)
        tile = CONFIG.tile_size
        within_tile = [(r, w) for r, w in sorted_rows if w <= tile]
        larger = [(r, w) for r, w in within_tile if r * w > score_blocks * tile]
        assert larger == [(TILES, tile)]

    if native:
        # The compiled merge never builds an order array.
        assert gathered == []
    else:
        # Only block rounds (pair rows no wider than a tile) ever gather a
        # full-row order; global rounds argsort just the scored blocks'
        # windows and take merged values from the in-place row sort.
        assert all(width <= CONFIG.tile_size for _, width in gathered)
        if score_blocks == TILES:
            block_rounds = sum(r.kind == "block" for r in oracle.rounds)
            assert len(gathered) == block_rounds


class TestSignedZeros:
    """Inputs holding both -0.0 and +0.0 sort to the loop oracle's bits.

    The zeros compare equal, so which one lands where is decided by the
    register phase's odd-even network; a plain row sort orders them
    differently. So such inputs also skip the sampled sorts' on-demand
    block rounds, whose tile sorts are plain row sorts.
    """

    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(2)
        choices = np.array([-0.0, 0.0, -1.0, 1.0])
        return rng.choice(choices, size=CONFIG.tile_size * 4)

    @pytest.mark.parametrize("scoring", ["vectorized", "fused"])
    @pytest.mark.parametrize("score_blocks", [None, 1, 3])
    def test_sign_bits_match_loop(self, monkeypatch, data, scoring, score_blocks):
        def on_demand(*args):
            pytest.fail("both signed zeros must merge every block round")

        monkeypatch.setattr(PairwiseMergeSort, "_sampled_block_rounds", on_demand)
        oracle = _sort("loop", data, score_blocks)
        result = _sort(scoring, data, score_blocks)
        assert_results_identical(result, oracle)
        np.testing.assert_array_equal(
            np.signbit(result.values), np.signbit(oracle.values)
        )

    def test_single_signed_zero_keeps_fast_register_phase(self):
        assert not pairwise_mod._has_both_zeros(np.array([0.0, 1.0, 0.0]))
        assert not pairwise_mod._has_both_zeros(np.array([-0.0, 1.0, -0.0]))
        assert not pairwise_mod._has_both_zeros(np.array([0, 1, 0]))
        assert pairwise_mod._has_both_zeros(np.array([-0.0, 1.0, 0.0]))
