"""Sampled merge rounds against the loop oracle.

A sampled round (``score_blocks`` below the round's tile or block count)
takes its merged values from a stable row sort and argsorts only the
pair rows its scored tiles or blocks read; a round whose scored tiles
cover every pair row argsorts every row. Either way the result must
match the loop oracle — which always argsorts every row — in values,
counters and per-step costs, for every sample size from one tile up to
all of them.
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

    full_rounds = []
    original = pairwise_mod._gather_rows

    def counting(flat, order):
        full_rounds.append(order.shape)
        return original(flat, order)

    monkeypatch.setattr(pairwise_mod, "_gather_rows", counting)
    result = _sort(scoring, data, score_blocks)
    assert_results_identical(result, oracle)

    merge_rounds = sum(r.kind != "registers" for r in oracle.rounds)
    if scoring == "fused" and pairwise_mod.fused_kernels.native_round_ready(data):
        # The compiled merge never builds an order array.
        assert full_rounds == []
    elif score_blocks == TILES:
        # Every tile scored: every round argsorts every row.
        assert len(full_rounds) == merge_rounds
    else:
        # Sampled rounds skip the full argsort, except the global rounds
        # whose scored blocks already span every pair row.
        assert len(full_rounds) < merge_rounds


class TestSignedZeros:
    """Inputs holding both -0.0 and +0.0 sort to the loop oracle's bits.

    The zeros compare equal, so which one lands where is decided by the
    register phase's odd-even network; a plain row sort orders them
    differently.
    """

    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(2)
        choices = np.array([-0.0, 0.0, -1.0, 1.0])
        return rng.choice(choices, size=CONFIG.tile_size * 4)

    @pytest.mark.parametrize("scoring", ["vectorized", "fused"])
    @pytest.mark.parametrize("score_blocks", [None, 1])
    def test_sign_bits_match_loop(self, data, scoring, score_blocks):
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
