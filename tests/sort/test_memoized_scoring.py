"""Reused counts within one sort: the default path's contract.

A tile's counts are a pure function of its rank→address row, so the
default scoring path counts each run of adjacent equal rows once and
reuses the counts over the run. Nothing of it outlives a sort; the one
warm state left is the daemon's reply cache. What is pinned here is
that the reuse engages on periodic inputs, that it stays bit-identical
to counting every row and to the loop oracle (sampled rounds included),
that the reply cache serves exact results under eviction churn, and
that results carry no memo statistics.
:mod:`tests.dmm.test_run_dedup` holds the property tests over injected
runs.
"""

import json

import numpy as np
import pytest

from repro.inputs.generators import generate
from repro.service.result_cache import ReplyCache, SimulateEntry
from repro.sort.pairwise import PairwiseMergeSort
from repro.sort.serialize import result_from_obj
from tests.engine.comparison import (
    CONFIGS,
    assert_results_identical,
    counting_every_row,
    rows_counted,
)


def run_three(config, data, *, score_blocks=None, seed=0, mitigation="none"):
    """One sort per scoring path: default, every row counted, loop."""
    def sort(**kwargs):
        sorter = PairwiseMergeSort(config, mitigation=mitigation, **kwargs)
        return sorter.sort(data, score_blocks=score_blocks, seed=seed)

    default = sort()
    with counting_every_row():
        every_row = sort()
    return default, every_row, sort(scoring="loop")


class TestMemoizedSampling:
    @pytest.mark.parametrize("score_blocks", [1, 2, 3])
    def test_sampled_rounds_share_rng_draws(self, score_blocks):
        """Sampled rounds reuse counts over the scored tiles only and
        draw the same blocks as the other paths, on the stock and the
        padded layout."""
        cfg = CONFIGS["small-e"]
        for name in ("random", "worst-case"):
            data = generate(name, cfg, cfg.tile_size * 16, seed=3)
            for mitigation in ("none", "padding:1"):
                default, every_row, loop = run_three(
                    cfg, data, score_blocks=score_blocks, seed=777,
                    mitigation=mitigation,
                )
                assert_results_identical(default, every_row)
                assert_results_identical(default, loop)


class TestWarmMemo:
    def test_round_hits_stay_bit_identical(self):
        """Rounds whose tiles collapse into one run still match counting
        every row, and a sorter holds no state between sorts."""
        cfg = CONFIGS["small-e"]
        data = generate("worst-case", cfg, cfg.tile_size * 8, seed=0)
        sorter = PairwiseMergeSort(cfg)
        first = sorter.sort(data)
        second = sorter.sort(data)
        assert_results_identical(second, first)
        with counting_every_row():
            every_row = PairwiseMergeSort(cfg).sort(data)
        assert_results_identical(second, every_row)

    def test_periodic_input_dedups_within_one_sort(self):
        """The constructed input is periodic at every round: each of its
        rounds counts one row for all its tiles."""
        cfg = CONFIGS["small-e"]
        tiles = 8
        data = generate("worst-case", cfg, cfg.tile_size * tiles, seed=0)
        rounds = PairwiseMergeSort(cfg).sort(data).rounds
        counted = rows_counted(lambda: PairwiseMergeSort(cfg).sort(data))
        merge_rounds = [r for r in rounds if r.kind != "registers"]
        assert all(r.blocks_scored == tiles for r in merge_rounds)
        assert counted == [1] * len(merge_rounds)


    def test_eviction_churn_stays_exact(self):
        """The one warm state left is the daemon's reply cache. A budget
        of one entry forces an eviction on every store; whatever it
        serves must still decode bit-identical to a fresh sort."""
        cfg = CONFIGS["small-e"]
        inputs = [
            generate(name, cfg, cfg.tile_size * 4, seed=7)
            for name in ("random", "worst-case", "sawtooth")
        ]
        fresh = [PairwiseMergeSort(cfg).sort(data) for data in inputs]
        budget = max(SimulateEntry.encode(r).nbytes for r in fresh)
        cache = ReplyCache(max_bytes=budget)
        for _ in range(2):
            for key, data, expected in zip((b"r", b"w", b"s"), inputs, fresh):
                entry = cache.get("/simulate", key)
                if entry is None:
                    entry = SimulateEntry.encode(PairwiseMergeSort(cfg).sort(data))
                    cache.put("/simulate", key, entry)
                body = entry.reply_head(True, True) + b"false}"
                served = result_from_obj(json.loads(body)["result"])
                assert_results_identical(served, expected)
                assert len(cache) == 1
        assert cache.stored_bytes <= cache.max_bytes


class TestMemoConfiguration:
    def test_loop_result_has_no_memo_stats(self):
        """``memo_stats`` stays on the wire for old readers; no scoring
        path fills it."""
        cfg = CONFIGS["tiny"]
        data = generate("random", cfg, cfg.tile_size * 2)
        for scoring in ("loop", "vectorized", "fused"):
            result = PairwiseMergeSort(cfg, scoring=scoring).sort(data)
            assert result.memo_stats is None


def test_values_still_sorted():
    cfg = CONFIGS["large-e"]
    data = generate("reverse", cfg, cfg.tile_size * 8, seed=0)
    result = PairwiseMergeSort(cfg).sort(data)
    np.testing.assert_array_equal(result.values, np.sort(data))
