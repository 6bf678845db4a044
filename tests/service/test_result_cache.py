"""The daemon's reply cache.

A repeat is served from the cache only when nothing that determines its
reply changed. What it serves must be byte-identical to the body a fresh
computation encodes (and, for ``/simulate``, bit-identical to a direct
library sort); only the reply's own ``coalesced`` flag may differ.
"""

import http.client
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.adversary.permutation import worst_case_permutation
from repro.inputs.generators import generate
from repro.service.protocol import SimulateRequest, point_from_obj
from repro.service.result_cache import (
    ReplyCache,
    SimulateEntry,
    reply_body,
    reply_head,
    simulate_key,
)
from repro.service.server import ReproService
from repro.sort.pairwise import PairwiseMergeSort
from repro.sort.serialize import (
    array_to_obj,
    config_to_obj,
    result_from_obj,
    result_to_obj,
    results_identical,
)
from tests.service.conftest import small_config

CFG = small_config()
TILES = 4


def cfg_obj():
    return config_to_obj(CFG)


def direct(input_name="worst-case", *, score_blocks=8, seed=0, tiles=TILES):
    data = generate(input_name, CFG, CFG.tile_size * tiles, seed=seed)
    return PairwiseMergeSort(CFG).sort(data, score_blocks=score_blocks, seed=seed)


def executed(box, kind="simulate"):
    return box.client.stats()["executed"][kind]


def post(box, path, body) -> bytes:
    """The raw reply body of one request (200 expected)."""
    conn = http.client.HTTPConnection(box.client.host, box.client.port, timeout=60)
    try:
        conn.request(
            "POST", path, body=json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        raw = response.read()
        assert response.status == 200, raw
        return raw
    finally:
        conn.close()


def wire(payload: dict, coalesced=False) -> bytes:
    """What the daemon has always sent for ``payload``."""
    return json.dumps({**payload, "ok": True, "coalesced": coalesced}).encode()


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

    def test_sorted_ok_is_rechecked_on_every_request(self, service_factory):
        """A hit compares the request's own input with the entry's sorted
        values: corrupt the retained values and the next hit says so."""
        with service_factory() as box:
            assert box.client.simulate(config=cfg_obj(), tiles=TILES).sorted_ok
            request = SimulateRequest.from_payload(
                {"config": cfg_obj(), "tiles": TILES}
            )
            key = simulate_key(
                request, generate("worst-case", CFG, request.num_elements)
            )
            entry = box.service.replies.get("/simulate", key)
            entry.values[0] += 1
            reply = box.client.simulate(config=cfg_obj(), tiles=TILES)
            assert not reply.sorted_ok
            assert executed(box) == 1
            assert box.client.stats()["memo"]["hits"] == 2


class TestReplyBytes:
    def test_simulate_hit_bytes_equal_miss_bytes(self, service_factory):
        """Both ``include_values`` settings share one sort, and every body
        is what encoding the direct sort's reply gives."""
        reference = direct()
        body = {"config": cfg_obj(), "tiles": TILES}
        with service_factory() as box:
            for include_values in (True, False):
                expected = wire(
                    {
                        "sorted_ok": True,
                        "result": result_to_obj(
                            reference, include_values=include_values
                        ),
                    }
                )
                request = {**body, "include_values": include_values}
                assert post(box, "/simulate", request) == expected
                assert post(box, "/simulate", request) == expected
            assert executed(box) == 1
            cached = box.client.stats()["reply_cache"]["/simulate"]
            assert (cached["hits"], cached["misses"]) == (3, 1)

    def test_sweep_hit_bytes_equal_miss_bytes(self, service_factory):
        body = {
            "config": cfg_obj(),
            "inputs": ["random"],
            "sizes": [CFG.tile_size * 2, CFG.tile_size * 4],
            "score_blocks": 2,
        }
        with service_factory() as box:
            miss = post(box, "/sweep", body)
            hit = post(box, "/sweep", body)
            assert hit == miss
            assert json.loads(miss)["coalesced"] is False
            assert executed(box, "sweep") == 1
            stats = box.client.stats()
            cached = stats["reply_cache"]["/sweep"]
            assert (cached["hits"], cached["misses"]) == (1, 1)
            assert cached["entries"] == 1 and cached["stored_bytes"] > 0
            # A hit never reaches the single flight.
            assert stats["batching"]["primary"] == 1
            assert stats["batching"]["coalesced"] == 0

    def test_construct_hit_bytes_equal_miss_bytes(self, service_factory):
        data = worst_case_permutation(CFG, CFG.tile_size * 2)
        with service_factory() as box:
            for encoding, values in (
                ("json", data.tolist()),
                ("b64", array_to_obj(data)),
            ):
                expected = wire(
                    {
                        "config": cfg_obj(),
                        "num_elements": data.size,
                        "encoding": encoding,
                        "values": values,
                    }
                )
                body = {"config": cfg_obj(), "tiles": 2, "encoding": encoding}
                assert post(box, "/construct", body) == expected
                assert post(box, "/construct", body) == expected
            # The encoding is part of the key: one construction each.
            assert executed(box, "construct") == 2
            cached = box.client.stats()["reply_cache"]["/construct"]
            assert (cached["hits"], cached["misses"], cached["entries"]) == (2, 2, 2)


class TestCoalescedFlag:
    def test_joins_say_coalesced_and_hits_do_not(
        self, service_factory, monkeypatch
    ):
        started = threading.Event()
        release = threading.Event()
        original = ReproService._compute_sweep

        def gated(self, request):
            started.set()
            assert release.wait(30), "test never released the gated compute"
            return original(self, request)

        monkeypatch.setattr(ReproService, "_compute_sweep", gated)
        kwargs = dict(
            config=cfg_obj(), inputs=["random"], sizes=[CFG.tile_size * 2],
            score_blocks=2,
        )
        with service_factory() as box:
            with ThreadPoolExecutor(max_workers=2) as pool:
                leader = pool.submit(box.client.sweep, **kwargs)
                assert started.wait(15)
                joined = pool.submit(box.client.sweep, **kwargs)
                deadline = time.monotonic() + 15
                while box.client.stats()["batching"]["coalesced"] < 1:
                    assert time.monotonic() < deadline, "no request joined"
                    time.sleep(0.05)
                release.set()
                first, second = leader.result(), joined.result()
            hit = box.client.sweep(**kwargs)
            assert (first.coalesced, second.coalesced, hit.coalesced) == (
                False, True, False,
            )
            assert first.points == second.points == hit.points
            assert executed(box, "sweep") == 1


class TestJobs:
    def test_job_points_equal_a_direct_sweep(self, service_factory):
        """Chunks fill the reply cache like direct sweeps do; a job,
        its repeat (all chunks hits) and one direct ``/sweep`` over the
        whole grid agree."""
        sizes = [CFG.tile_size * 2, CFG.tile_size * 4]
        manifest = {
            "config": cfg_obj(), "inputs": ["random"], "sizes": sizes,
            "score_blocks": 2, "chunk_sizes": 1,
        }
        with service_factory() as box:
            runs = []
            for _ in range(2):
                ack = box.client.submit_job(manifest)
                status = box.client.wait_for_job(ack["job_id"], timeout=60.0)
                assert status["status"] == "done"
                runs.append([point_from_obj(p) for p in status["points"]])
            assert box.client.stats()["reply_cache"]["/sweep"]["hits"] == 2
            whole = box.client.sweep(
                config=cfg_obj(), inputs=["random"], sizes=sizes, score_blocks=2
            )
            assert runs[0] == runs[1] == whole.points


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
            {"mitigation": "padding:1"},
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


class TestEncoding:
    def test_reply_head_closes_to_json_dumps(self):
        payload = {"points": [{"n": 1, "ms": 0.25}], "sizes": [1]}
        for coalesced in (False, True):
            assert reply_body(reply_head(payload), coalesced) == wire(
                payload, coalesced
            )

    def test_simulate_entry_encodes_both_settings(self):
        result = direct()
        entry = SimulateEntry.encode(result)
        for include_values in (True, False):
            head = entry.reply_head(True, include_values)
            expected = {
                "sorted_ok": True,
                "result": result_to_obj(result, include_values=include_values),
            }
            assert reply_body(head, False) == wire(expected)
        body = reply_body(entry.reply_head(True, True), False)
        decoded = result_from_obj(json.loads(body)["result"])
        assert results_identical(decoded, result)


class TestLru:
    def entries(self, count):
        return [
            SimulateEntry.encode(direct(seed=s, tiles=2, score_blocks=1))
            for s in range(count)
        ]

    def test_budget_evicts_least_recently_used(self):
        entries = self.entries(3)
        size = max(e.nbytes for e in entries)
        cache = ReplyCache(max_bytes=2 * size)
        cache.put("/simulate", b"a", entries[0])
        cache.put("/simulate", b"b", entries[1])
        assert cache.get("/simulate", b"a") is entries[0]  # "b" is now the oldest
        cache.put("/simulate", b"c", entries[2])
        assert cache.get("/simulate", b"b") is None
        assert cache.get("/simulate", b"a") is entries[0]
        assert cache.get("/simulate", b"c") is entries[2]
        assert len(cache) == 2
        assert cache.stored_bytes <= cache.max_bytes
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (3, 1)

    def test_oversized_result_is_not_kept(self):
        (entry,) = self.entries(1)
        cache = ReplyCache(max_bytes=entry.nbytes - 1)
        cache.put("/simulate", b"a", entry)
        assert len(cache) == 0 and cache.stored_bytes == 0
        cache.put("/sweep", "k", b"x" * cache.max_bytes)
        assert len(cache) == 1

    def test_eviction_crosses_endpoints_and_keeps_their_tallies(self):
        cache = ReplyCache(max_bytes=100)
        cache.put("/sweep", "s", b"s" * 40)
        cache.put("/construct", "c", b"c" * 40)
        cache.put("/sweep", "t", b"t" * 40)  # evicts "s", the oldest
        assert cache.get("/sweep", "s") is None
        assert cache.get("/construct", "c") == b"c" * 40
        split = cache.endpoint_stats()
        assert split["/sweep"] == {
            "hits": 0, "misses": 1, "entries": 1, "stored_bytes": 40,
        }
        assert split["/construct"] == {
            "hits": 1, "misses": 0, "entries": 1, "stored_bytes": 40,
        }
        assert split["/simulate"]["entries"] == 0
        assert cache.stats()["stored_bytes"] == 80

    def test_same_key_on_another_endpoint_is_another_entry(self):
        cache = ReplyCache()
        cache.put("/sweep", "k", b"sweep")
        assert cache.get("/construct", "k") is None
        cache.put("/sweep", "k", b"again")  # a present key is not replaced
        assert cache.get("/sweep", "k") == b"sweep"


class TestObservability:
    def test_metrics_render_the_per_endpoint_split(self, service_factory):
        with service_factory() as box:
            for _ in range(2):
                box.client.construct(config=cfg_obj(), tiles=2)
            text = box.client.metrics()
            assert "# TYPE repro_reply_cache_hits_total counter" in text
            assert 'repro_reply_cache_hits_total{endpoint="/construct"} 1' in text
            assert 'repro_reply_cache_misses_total{endpoint="/construct"} 1' in text
            assert 'repro_reply_cache_entries{endpoint="/sweep"} 0' in text
            assert "# TYPE repro_reply_cache_bytes gauge" in text
            # The totals keep their names for existing scrapers.
            assert "repro_result_cache_hits_total 1" in text
            lines = text.splitlines()
            family = [
                i for i, line in enumerate(lines)
                if line.startswith("repro_reply_cache_hits_total{")
            ]
            assert family == list(range(family[0], family[0] + 3))


class TestConcurrency:
    def test_threads_keep_the_ledger_consistent(self):
        """The event loop and executor threads share one cache: hammer a
        small budget from more threads than cores with a short switch
        interval, and check that no update to the tallies was lost."""
        cache = ReplyCache(max_bytes=4096)
        endpoints = ("/construct", "/sweep")
        lookups = 400

        def work(seed):
            for i in range(lookups):
                endpoint = endpoints[(seed + i) % 2]
                key = (seed * 7 + i) % 23
                if cache.get(endpoint, key) is None:
                    cache.put(endpoint, key, b"x" * (64 + 32 * (key % 5)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        split = cache.endpoint_stats()
        totals = cache.stats()
        assert totals["hits"] + totals["misses"] == 8 * lookups
        assert sum(s["entries"] for s in split.values()) == len(cache)
        stored = sum(size for _, size in cache._entries.values())
        assert sum(s["stored_bytes"] for s in split.values()) == stored
        assert stored == totals["stored_bytes"] <= cache.max_bytes
