"""On-demand block rounds of sampled sorts against the loop oracle.

A sampled sort (``score_blocks`` below its tile count) merges only the
tiles its block rounds score: each round sorts those tiles' pre-merge
runs out of the register phase's output, and one tile-row sort after the
last block round feeds the global rounds
(``PairwiseMergeSort._sampled_block_rounds``). Its results must equal
the loop oracle's — values, counters and per-step costs — for every
sample size, layout and key type. (Inputs holding both ``-0.0`` and
``+0.0`` merge round by round instead: ``test_sampled_merge.py``'s
``TestSignedZeros``.)
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.inputs.generators import generate
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort
from tests.engine.comparison import assert_results_identical

CONFIGS = {
    "E3-w8": SortConfig(elements_per_thread=3, block_size=16, warp_size=8),
    # E > w/2, where the paper's constructions live.
    "E5-w8": SortConfig(elements_per_thread=5, block_size=16, warp_size=8),
    # GCD(w, E) = 2: no constructed inputs, random keys only.
    "E6-w8": SortConfig(elements_per_thread=6, block_size=8, warp_size=8),
}
#: The configs with constructed (worst-case, conflict-heavy) inputs.
GRID_CONFIGS = ["E3-w8", "E5-w8"]
TILES = 8
MITIGATIONS = ["none", "padding:1", "cfree-sort", "cfree-permute"]
FAMILIES = ["random", "few-unique", "conflict-heavy", "worst-case"]


def _sort(config, scoring, mitigation, data, score_blocks, seed=7):
    return PairwiseMergeSort(config, scoring=scoring, mitigation=mitigation).sort(
        data, score_blocks=score_blocks, seed=seed
    )


def _count_on_demand(monkeypatch):
    """Record each call of the on-demand block-round path."""
    calls = []
    original = PairwiseMergeSort._sampled_block_rounds

    def counting(self, *args, **kwargs):
        calls.append(args[0].size)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PairwiseMergeSort, "_sampled_block_rounds", counting)
    return calls


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mitigation", MITIGATIONS)
@pytest.mark.parametrize("config_name", GRID_CONFIGS)
def test_every_sample_size_matches_loop_oracle(
    monkeypatch, config_name, mitigation, family, dtype
):
    config = CONFIGS[config_name]
    data = generate(family, config, config.tile_size * TILES, seed=13).astype(dtype)
    calls = _count_on_demand(monkeypatch)
    for score_blocks in range(1, TILES):
        oracle = _sort(config, "loop", mitigation, data, score_blocks)
        result = _sort(config, "vectorized", mitigation, data, score_blocks)
        assert_results_identical(result, oracle)
        assert result.values.dtype == dtype
    # The loop oracle never takes the on-demand path; every sampled
    # vectorized sort does, once.
    assert calls == [data.size] * (TILES - 1)


@st.composite
def sampled_sorts(draw):
    """A config, input and sample size with fewer scored tiles than tiles."""
    config = CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))]
    tiles = 1 << draw(st.integers(1, 4))
    keys = draw(st.sampled_from([1, 2, 5, 1 << 20]))
    seed = draw(st.integers(0, 2**32 - 1))
    data = np.random.default_rng(seed).integers(0, keys, size=tiles * config.tile_size)
    if draw(st.booleans()):
        data = data.astype(np.float64) - 0.5 * keys
    return (
        config,
        data,
        draw(st.integers(1, tiles - 1)),
        draw(st.sampled_from(MITIGATIONS)),
        seed,
    )


@settings(max_examples=60, deadline=None)
@given(sampled_sorts())
def test_random_sampled_sorts_match_loop_oracle(case):
    """Heavy duplicate keys, any tile count, any sample size, any seed."""
    config, data, score_blocks, mitigation, seed = case
    oracle = _sort(config, "loop", mitigation, data, score_blocks, seed)
    result = _sort(config, "vectorized", mitigation, data, score_blocks, seed)
    assert_results_identical(result, oracle)
