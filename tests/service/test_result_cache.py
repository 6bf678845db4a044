"""The daemon's whole-sort result cache.

A ``/simulate`` repeat is served from the cache only when nothing that
determines its result changed; what it serves must be bit-identical to
a direct library sort of the same request.
"""

import numpy as np

from repro.inputs.generators import generate
from repro.service.result_cache import ResultCache, result_bytes, simulate_key
from repro.service.protocol import SimulateRequest
from repro.sort.pairwise import PairwiseMergeSort
from repro.sort.serialize import config_to_obj, results_identical
from tests.service.conftest import small_config

CFG = small_config()
TILES = 4


def cfg_obj():
    return config_to_obj(CFG)


def direct(input_name="worst-case", *, score_blocks=8, seed=0, tiles=TILES):
    data = generate(input_name, CFG, CFG.tile_size * tiles, seed=seed)
    return PairwiseMergeSort(CFG).sort(data, score_blocks=score_blocks, seed=seed)


def executed(box):
    return box.client.stats()["executed"]["simulate"]


class TestServedRequests:
    def test_repeat_computes_once(self, service_factory):
        with service_factory() as box:
            first = box.client.simulate(config=cfg_obj(), tiles=TILES)
            second = box.client.simulate(config=cfg_obj(), tiles=TILES)
            assert executed(box) == 1
            assert first.sorted_ok and second.sorted_ok
            assert results_identical(first.result, second.result)

    def test_served_results_match_direct_sorts(self, service_factory):
        with service_factory() as box:
            for _ in range(2):  # a miss, then a hit
                reply = box.client.simulate(
                    config=cfg_obj(), tiles=TILES, input="random", seed=5,
                    score_blocks=2,
                )
                assert results_identical(
                    reply.result, direct("random", score_blocks=2, seed=5)
                )
            assert executed(box) == 1

    def test_unsampled_worst_case_ignores_seed(self, service_factory):
        """The worst-case input ignores its seed, and no round samples
        when ``score_blocks`` covers every tile: a new seed hits."""
        with service_factory() as box:
            for seed in (1, 2, 3):
                reply = box.client.simulate(
                    config=cfg_obj(), tiles=TILES, score_blocks=TILES, seed=seed
                )
                assert results_identical(
                    reply.result, direct(score_blocks=TILES, seed=seed)
                )
            assert executed(box) == 1
            memo = box.client.stats()["memo"]
            assert (memo["hits"], memo["misses"]) == (2, 1)

    def test_sampled_request_with_new_seed_misses(self, service_factory):
        with service_factory() as box:
            box.client.simulate(
                config=cfg_obj(), tiles=TILES, score_blocks=2, seed=1
            )
            reply = box.client.simulate(
                config=cfg_obj(), tiles=TILES, score_blocks=2, seed=2
            )
            assert executed(box) == 2
            assert results_identical(
                reply.result, direct(score_blocks=2, seed=2)
            )

    def test_include_values_shares_the_entry(self, service_factory):
        with service_factory() as box:
            full = box.client.simulate(config=cfg_obj(), tiles=TILES)
            bare = box.client.simulate(
                config=cfg_obj(), tiles=TILES, include_values=False
            )
            assert executed(box) == 1
            assert bare.result.values.size == 0
            assert results_identical(bare.result, full.result, require_values=False)

    def test_stats_memo_section_counts_the_cache(self, service_factory):
        with service_factory() as box:
            box.client.simulate(config=cfg_obj(), tiles=TILES)
            box.client.simulate(config=cfg_obj(), tiles=TILES)
            memo = box.client.stats()["memo"]
            assert memo["hits"] == 1 and memo["misses"] == 1
            assert memo["entries"] == 1
            assert 0 < memo["stored_bytes"] <= memo["max_bytes"]


class TestKey:
    def request(self, **fields):
        payload = {"config": cfg_obj(), "tiles": TILES, **fields}
        return SimulateRequest.from_payload(payload)

    def key(self, request, input_name="worst-case", seed=0):
        values = generate(input_name, CFG, request.num_elements, seed=seed)
        return simulate_key(request, values)

    def test_seed_enters_only_when_sampling(self):
        exact = [self.key(self.request(score_blocks=TILES, seed=s)) for s in (1, 2)]
        assert exact[0] == exact[1]
        sampled = [self.key(self.request(score_blocks=2, seed=s)) for s in (1, 2)]
        assert sampled[0] != sampled[1]

    def test_result_knobs_and_input_bytes_enter(self):
        base = self.key(self.request())
        for fields in (
            {"scoring": "fused"},
            {"mitigation": "cfree-sort"},
            {"padding": 1},
            {"score_blocks": 2},
        ):
            assert self.key(self.request(**fields)) != base, fields
        assert self.key(self.request(), input_name="random") != base
        as_float = simulate_key(
            self.request(),
            generate("worst-case", CFG, CFG.tile_size * TILES).astype(np.float64),
        )
        assert as_float != base

    def test_include_values_does_not_enter(self):
        assert self.key(self.request(include_values=False)) == self.key(
            self.request()
        )


class TestLru:
    def results(self, count):
        return [direct(seed=s, tiles=2, score_blocks=1) for s in range(count)]

    def test_budget_evicts_least_recently_used(self):
        results = self.results(3)
        size = max(result_bytes(r) for r in results)
        cache = ResultCache(max_bytes=2 * size)
        cache.put(b"a", results[0])
        cache.put(b"b", results[1])
        assert cache.get(b"a") is results[0]  # "b" is now the oldest
        cache.put(b"c", results[2])
        assert cache.get(b"b") is None
        assert cache.get(b"a") is results[0]
        assert cache.get(b"c") is results[2]
        assert len(cache) == 2
        assert cache.stored_bytes <= cache.max_bytes
        assert (cache.hits, cache.misses) == (3, 1)

    def test_oversized_result_is_not_kept(self):
        (result,) = self.results(1)
        cache = ResultCache(max_bytes=result_bytes(result) - 1)
        cache.put(b"a", result)
        assert len(cache) == 0 and cache.stored_bytes == 0
