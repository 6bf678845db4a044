"""Tests for Dotsenko-style padding — the conflict-free mitigation."""

import numpy as np
import pytest

from repro.adversary.permutation import worst_case_permutation
from repro.errors import ValidationError
from repro.mitigation.padding import pad_addresses, padded_shared_bytes, padded_size
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort


class TestPadAddresses:
    def test_identity_at_zero(self):
        addrs = np.array([0, 5, 9, -1])
        assert np.array_equal(pad_addresses(addrs, 4, 0), addrs)

    def test_skews_columns(self):
        # Logical column walk 0, 4, 8 (all bank 0 for w=4) spreads out.
        out = pad_addresses(np.array([0, 4, 8]), 4, 1)
        assert out.tolist() == [0, 5, 10]
        assert len(set(a % 4 for a in out.tolist())) == 3

    def test_inactive_preserved(self):
        out = pad_addresses(np.array([-1, 7]), 4, 2)
        assert out[0] == -1
        assert out[1] == 7 + (7 // 4) * 2

    def test_injective(self):
        """Padding must never map two logical cells to one physical cell."""
        logical = np.arange(1024)
        for pad in (1, 2, 3):
            physical = pad_addresses(logical, 32, pad)
            assert np.unique(physical).size == logical.size

    def test_monotone(self):
        logical = np.arange(256)
        physical = pad_addresses(logical, 16, 1)
        assert (np.diff(physical) > 0).all()

    def test_rejects_bad_padding(self):
        with pytest.raises(ValidationError):
            pad_addresses(np.array([0]), 4, -1)


class TestPaddedSize:
    def test_examples(self):
        assert padded_size(0, 4, 1) == 0
        assert padded_size(4, 4, 1) == 4  # last index 3 gains nothing
        assert padded_size(5, 4, 1) == 6  # index 4 -> 5
        assert padded_size(8, 4, 1) == 9

    def test_matches_transform(self):
        for n in (1, 7, 32, 100):
            top = pad_addresses(np.array([n - 1]), 8, 3)[0]
            assert padded_size(n, 8, 3) == top + 1

    def test_shared_bytes(self):
        cfg = SortConfig(elements_per_thread=15, block_size=512)
        assert padded_shared_bytes(cfg, 0) == cfg.shared_bytes_per_block
        assert padded_shared_bytes(cfg, 1) > cfg.shared_bytes_per_block


def padded_sorter(cfg):
    """The sorter with one pad cell per ``w`` (the paper's mitigation)."""
    return PairwiseMergeSort(cfg, mitigation="padding:1")


class TestMitigationEndToEnd:
    @pytest.fixture(scope="class")
    def setup(self):
        cfg = SortConfig(elements_per_thread=15, block_size=128)
        n = cfg.tile_size * 16
        perm = worst_case_permutation(cfg, n)
        return cfg, n, perm

    def test_sort_still_correct_with_padding(self, setup):
        cfg, n, perm = setup
        result = padded_sorter(cfg).sort(perm, score_blocks=4)
        assert np.array_equal(result.values, np.arange(n))

    def test_padding_neutralizes_adversary(self, setup):
        """The constructed input's serialization collapses under pad=1."""
        cfg, n, perm = setup
        stock = PairwiseMergeSort(cfg).sort(perm, score_blocks=4)
        padded = padded_sorter(cfg).sort(perm, score_blocks=4)
        assert padded.total_shared_cycles() < 0.6 * stock.total_shared_cycles()

    def test_padded_global_rounds_near_conflict_free(self, setup):
        """The E² per-warp pile-up disappears: padded merge rounds cost a
        small multiple of the conflict-free E cycles per warp — below even
        the random-input level (~3.4·E, the balls-in-bins max load), instead
        of the stock worst case's E² = 225."""
        cfg, n, perm = setup
        result = padded_sorter(cfg).sort(perm, score_blocks=4)
        for r in result.rounds:
            if r.kind == "global":
                warps = r.blocks_scored * cfg.warps_per_block
                per_warp = r.merge_report.total_transactions / warps
                assert per_warp < 3.4 * cfg.E  # stock input costs E² = 225

    def test_padding_rejects_negative(self):
        cfg = SortConfig(elements_per_thread=3, block_size=32)
        with pytest.raises(ValidationError, match="padding width"):
            PairwiseMergeSort(cfg, mitigation="padding:-1")
