"""Tests for the K-way merge sort substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.permutation import worst_case_permutation
from repro.errors import ValidationError
from repro.inputs.generators import generate
from repro.sort.config import SortConfig
from repro.sort.multiway import MultiwaySort
from repro.sort.pairwise import PairwiseMergeSort


@pytest.fixture
def cfg():
    return SortConfig(elements_per_thread=3, block_size=8, warp_size=8)


class TestCorrectness:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_random(self, cfg, rng, k):
        n = cfg.tile_size * 16
        data = rng.permutation(n)
        result = MultiwaySort(cfg, k=k).sort(data)
        assert np.array_equal(result.values, np.sort(data))

    def test_duplicates(self, cfg, rng):
        n = cfg.tile_size * 8
        data = rng.integers(0, 5, size=n)
        result = MultiwaySort(cfg, k=4).sort(data)
        assert np.array_equal(result.values, np.sort(data))

    def test_single_tile(self, cfg, rng):
        data = rng.permutation(cfg.tile_size)
        result = MultiwaySort(cfg, k=4).sort(data)
        assert np.array_equal(result.values, np.sort(data))

    def test_partial_final_fan(self, cfg, rng):
        """Tiles = 2 with K = 4: the round degrades to fan 2."""
        n = cfg.tile_size * 2
        data = rng.permutation(n)
        result = MultiwaySort(cfg, k=4).sort(data)
        assert np.array_equal(result.values, np.sort(data))
        labels = [r.label for r in result.rounds if "multiway" in r.label]
        assert labels == [f"multiway-round-L{cfg.tile_size}-K2"]

    def test_rejects_nan_keys(self, cfg):
        data = np.arange(cfg.tile_size * 4, dtype=np.float64)
        data[5] = np.nan
        with pytest.raises(ValidationError, match="NaN"):
            MultiwaySort(cfg, k=4).sort(data)

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_rejects_bad_fan(self, cfg, k):
        with pytest.raises(ValidationError):
            MultiwaySort(cfg, k=k)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_property(self, data):
        cfg = SortConfig(elements_per_thread=3, block_size=4, warp_size=4)
        tiles = data.draw(st.sampled_from([4, 8, 16]))
        n = cfg.tile_size * tiles
        values = np.array(
            data.draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))
        )
        result = MultiwaySort(cfg, k=4).sort(values)
        assert np.array_equal(result.values, np.sort(values))


class TestRoundStructure:
    def test_fewer_rounds_than_pairwise(self, cfg, rng):
        n = cfg.tile_size * 64
        data = rng.permutation(n)
        mw = MultiwaySort(cfg, k=8).sort(data, score_blocks=2)
        pw = PairwiseMergeSort(cfg).sort(data, score_blocks=2)
        assert mw.num_rounds < pw.num_rounds

    def test_round_count_formula(self, cfg):
        mw = MultiwaySort(cfg, k=4)
        assert mw.num_multiway_rounds(cfg.tile_size) == 0
        assert mw.num_multiway_rounds(cfg.tile_size * 4) == 1
        assert mw.num_multiway_rounds(cfg.tile_size * 8) == 2  # 8 -> 2 -> 1
        assert mw.num_multiway_rounds(cfg.tile_size * 64) == 3

    def test_less_global_traffic(self, cfg, rng):
        n = cfg.tile_size * 64
        data = rng.permutation(n)
        mw = MultiwaySort(cfg, k=8).sort(data, score_blocks=2)
        pw = PairwiseMergeSort(cfg).sort(data, score_blocks=2)
        assert (
            mw.total_global_traffic().words < 0.7 * pw.total_global_traffic().words
        )


class TestAdversarialRobustness:
    def test_pairwise_adversary_hurts_multiway_less(self):
        """The constructed input is pairwise-specific: its relative damage
        to the K-way merge is a fraction of its damage to the pairwise
        merge."""
        cfg = SortConfig(elements_per_thread=15, block_size=64, warp_size=32)
        n = cfg.tile_size * 64
        worst = worst_case_permutation(cfg, n)
        random = generate("random", cfg, n, seed=0)

        def edge(sorter):
            w = sorter.sort(worst, score_blocks=4).total_shared_cycles()
            r = sorter.sort(random, score_blocks=4).total_shared_cycles()
            return w / r

        pairwise_edge = edge(PairwiseMergeSort(cfg))
        multiway_edge = edge(MultiwaySort(cfg, k=8))
        assert multiway_edge < 0.75 * pairwise_edge
        assert pairwise_edge > 1.5
