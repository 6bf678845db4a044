"""Loopback integration tests for the daemon.

Slow-computation scenarios (coalescing, backpressure, timeouts, drain)
are made deterministic by patching ``ReproService._compute_simulate``
with an event-gated wrapper: the leader blocks until the test releases
it, so concurrent requests are guaranteed to overlap.
"""

import io
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import BackpressureError, ServiceError, ValidationError
from repro.inputs.generators import generate
from repro.service.server import ReproService
from repro.sort.pairwise import PairwiseMergeSort
from repro.sort.serialize import config_to_obj, results_identical

from tests.service.conftest import small_config

CFG_OBJ = None


def cfg_obj():
    global CFG_OBJ
    if CFG_OBJ is None:
        CFG_OBJ = config_to_obj(small_config())
    return CFG_OBJ


def gated_simulate(monkeypatch):
    """Patch the simulate compute to block until the test says go."""
    started = threading.Event()
    release = threading.Event()
    original = ReproService._compute_simulate

    def slow(self, request):
        started.set()
        assert release.wait(30), "test never released the gated compute"
        return original(self, request)

    monkeypatch.setattr(ReproService, "_compute_simulate", slow)
    return started, release


class TestRoundTrip:
    def test_simulate_bit_identical_to_direct_call(self, service_factory):
        with service_factory() as box:
            reply = box.client.simulate(
                config=cfg_obj(), tiles=4, score_blocks=2, seed=0
            )
            cfg = small_config()
            data = generate("worst-case", cfg, cfg.tile_size * 4, seed=0)
            direct = PairwiseMergeSort(cfg).sort(
                data, score_blocks=2, seed=0
            )
            assert reply.sorted_ok
            assert results_identical(reply.result, direct)

    def test_construct_matches_library(self, service_factory):
        from repro.adversary.permutation import worst_case_permutation

        with service_factory() as box:
            cfg = small_config()
            for encoding in ("b64", "json"):
                served = box.client.construct(
                    config=cfg_obj(), tiles=2, encoding=encoding
                )
                direct = worst_case_permutation(cfg, cfg.tile_size * 2)
                assert served.dtype == direct.dtype
                assert np.array_equal(served, direct)

    def test_sweep_matches_local_run_points(self, service_factory):
        from repro.engine import execute_items, sweep_items
        from repro.gpu.device import QUADRO_M4000

        cfg = small_config()
        sizes = [cfg.tile_size * 2, cfg.tile_size * 4]
        with service_factory() as box:
            reply = box.client.sweep(
                config=cfg_obj(),
                inputs=["random", "worst-case"],
                sizes=sizes,
                exact_threshold=cfg.tile_size * 8,
                score_blocks=4,
            )
            local = execute_items(
                sweep_items(
                    cfg,
                    QUADRO_M4000,
                    ["random", "worst-case"],
                    sizes,
                    exact_threshold=cfg.tile_size * 8,
                    score_blocks=4,
                )
            )
            assert reply.points == local
            assert reply.sizes == sizes

    def test_healthz(self, service_factory):
        with service_factory() as box:
            probe = box.client.healthz()
            assert probe["status"] == "ok"


class TestCoalescing:
    def test_16_identical_requests_one_sort(self, service_factory, monkeypatch):
        started, release = gated_simulate(monkeypatch)
        with service_factory(queue_limit=4) as box:
            client = box.client

            def call():
                return client.simulate(
                    config=cfg_obj(), tiles=2, score_blocks=2, seed=0
                )

            with ThreadPoolExecutor(max_workers=16) as pool:
                futures = [pool.submit(call) for _ in range(16)]
                assert started.wait(15)
                # The leader is blocked; wait until all 16 requests have
                # reached the server, so the other 15 must coalesce.
                for _ in range(600):
                    if box.service.stats.requests["/simulate"] >= 16:
                        break
                    threading.Event().wait(0.05)
                assert box.service.stats.requests["/simulate"] >= 16
                release.set()
                replies = [f.result() for f in futures]

            stats = client.stats()
            assert stats["executed"]["simulate"] == 1
            assert stats["batching"]["primary"] == 1
            assert stats["batching"]["coalesced"] == 15
            assert sum(r.coalesced for r in replies) == 15
            first = replies[0].result
            assert all(
                results_identical(r.result, first) for r in replies[1:]
            )

    def test_different_seeds_do_not_coalesce(self, service_factory):
        with service_factory() as box:
            # Random input: the seed changes the values, so neither the
            # coalescer nor the result cache may serve the second request.
            for seed in (0, 1):
                box.client.simulate(
                    config=cfg_obj(), tiles=2, seed=seed, input="random"
                )
            stats = box.client.stats()
            assert stats["executed"]["simulate"] == 2
            assert stats["batching"]["coalesced"] == 0


class TestBackpressure:
    def test_saturated_queue_rejects_with_429(
        self, service_factory, monkeypatch
    ):
        started, release = gated_simulate(monkeypatch)
        with service_factory(queue_limit=1) as box:
            with ThreadPoolExecutor(max_workers=1) as pool:
                blocked = pool.submit(
                    box.client.simulate, config=cfg_obj(), tiles=2, seed=0
                )
                assert started.wait(15)
                # Distinct request while the only slot is held → 429.
                with pytest.raises(BackpressureError) as info:
                    box.client.simulate(config=cfg_obj(), tiles=2, seed=99)
                assert info.value.retry_after > 0
                # Identical request still coalesces despite saturation —
                # but would block on the gated leader, so just verify the
                # stats took the rejection.
                assert box.client.stats()["backpressure"]["rejected"] == 1
                release.set()
                assert blocked.result().sorted_ok

    def test_healthz_and_stats_bypass_admission(
        self, service_factory, monkeypatch
    ):
        started, release = gated_simulate(monkeypatch)
        with service_factory(queue_limit=1) as box:
            with ThreadPoolExecutor(max_workers=1) as pool:
                blocked = pool.submit(
                    box.client.simulate, config=cfg_obj(), tiles=2
                )
                assert started.wait(15)
                assert box.client.healthz()["status"] == "ok"
                assert box.client.stats()["batching"]["in_flight"] == 1
                release.set()
                blocked.result()


class TestTimeouts:
    def test_slow_request_times_out_with_504(
        self, service_factory, monkeypatch
    ):
        started, release = gated_simulate(monkeypatch)
        with service_factory(request_timeout=0.2) as box:
            with pytest.raises(ServiceError) as info:
                box.client.simulate(config=cfg_obj(), tiles=2)
            assert info.value.status == 504
            assert box.client.stats()["responses"]["timeouts"] == 1
            release.set()


class TestValidationAndRouting:
    def test_unknown_preset_is_400(self, service_factory):
        with service_factory() as box:
            with pytest.raises(ValidationError, match="unknown preset"):
                box.client.simulate(preset="nope", tiles=2)
            assert box.client.stats()["responses"]["validation_errors"] == 1

    def test_unknown_path_is_404(self, service_factory):
        with service_factory() as box:
            with pytest.raises(ValidationError):
                box.client.request("GET", "/nope")

    def test_wrong_method_is_405(self, service_factory):
        with service_factory() as box:
            with pytest.raises(ValidationError, match="expects POST"):
                box.client.request("GET", "/simulate")

    def test_invalid_json_body_is_400(self, service_factory):
        import http.client

        with service_factory() as box:
            conn = http.client.HTTPConnection(
                box.client.host, box.client.port, timeout=10
            )
            try:
                conn.request("POST", "/simulate", body=b"{not json")
                response = conn.getresponse()
                assert response.status == 400
            finally:
                conn.close()

    def test_validation_error_does_not_occupy_queue(self, service_factory):
        with service_factory(queue_limit=1) as box:
            for _ in range(5):
                with pytest.raises(ValidationError):
                    box.client.simulate(preset="nope", tiles=2)
            assert box.client.stats()["batching"]["in_flight"] == 0
            # And the gate is still usable afterwards.
            assert box.client.simulate(config=cfg_obj(), tiles=2).sorted_ok


class TestSharedCaches:
    def test_memo_shared_across_requests(self, service_factory):
        with service_factory() as box:
            first = box.client.simulate(config=cfg_obj(), tiles=2, seed=0)
            second = box.client.simulate(config=cfg_obj(), tiles=2, seed=0)
            # The daemon's result cache (reported under "memo") serves
            # the repeat run.
            memo = box.client.stats()["memo"]
            assert (memo["hits"], memo["misses"]) == (1, 1)
            assert results_identical(first.result, second.result)

    def test_bench_cache_attached(self, service_factory, tmp_path):
        cfg = small_config()
        with service_factory(cache_dir=str(tmp_path), use_cache=True) as box:
            kwargs = dict(
                config=cfg_obj(),
                sizes=[cfg.tile_size * 2],
                inputs=["random"],
                exact_threshold=cfg.tile_size * 8,
                score_blocks=4,
            )
            cold = box.client.sweep(**kwargs)
            warm = box.client.sweep(**kwargs)
            assert warm.points == cold.points
            # The computed sweep fills the disk cache; its repeat is a
            # reply-cache hit and executes nothing.
            stats = box.client.stats()
            assert stats["bench_cache"]["point_entries"] >= 1
            assert stats["executed"]["sweep"] == 1
            assert stats["reply_cache"]["/sweep"]["hits"] == 1
        # A fresh daemon on the same directory starts with an empty
        # reply cache and serves the point from disk.
        log = io.StringIO()
        with service_factory(
            cache_dir=str(tmp_path), use_cache=True, log_stream=log
        ) as box:
            assert box.client.sweep(**kwargs).points == cold.points
            assert "(cached)" in log.getvalue()


class TestShutdown:
    def test_graceful_drain_finishes_in_flight_work(
        self, service_factory, monkeypatch
    ):
        started, release = gated_simulate(monkeypatch)
        with service_factory() as box:
            with ThreadPoolExecutor(max_workers=1) as pool:
                blocked = pool.submit(
                    box.client.simulate, config=cfg_obj(), tiles=2
                )
                assert started.wait(15)
                assert box.client.shutdown()["status"] == "draining"
                release.set()
                # The in-flight request completes despite the shutdown.
                assert blocked.result().sorted_ok
            box.thread.join(30)
            assert not box.thread.is_alive()
        assert box.holder["drained"] is True

    def test_idle_keepalive_client_does_not_hold_the_drain(
        self, service_factory, monkeypatch
    ):
        """An idle keep-alive connection is closed once in-flight work
        finishes, so it costs the drain nothing; the request in flight
        still gets its reply."""
        import http.client
        import time

        started, release = gated_simulate(monkeypatch)
        with service_factory(drain_timeout=30.0) as box:
            idle = http.client.HTTPConnection(
                box.client.host, box.client.port, timeout=30
            )
            try:
                idle.request("GET", "/healthz")
                assert idle.getresponse().read()
                with ThreadPoolExecutor(max_workers=1) as pool:
                    blocked = pool.submit(
                        box.client.simulate, config=cfg_obj(), tiles=2
                    )
                    assert started.wait(15)
                    box.client.shutdown()
                    began = time.monotonic()
                    release.set()
                    assert blocked.result().sorted_ok
                box.thread.join(30)
                assert time.monotonic() - began < 2.0
                assert not box.thread.is_alive()
            finally:
                idle.close()
        assert box.holder["drained"] is True

    def test_draining_rejects_new_work_on_live_connections(
        self, service_factory, monkeypatch
    ):
        # A keep-alive connection opened before /shutdown stays up while
        # the daemon drains, but new compute on it gets 503 + Retry-After.
        import http.client
        import json as jsonlib

        started, release = gated_simulate(monkeypatch)
        with service_factory() as box:
            with ThreadPoolExecutor(max_workers=1) as pool:
                blocked = pool.submit(
                    box.client.simulate, config=cfg_obj(), tiles=2
                )
                assert started.wait(15)
                conn = http.client.HTTPConnection(
                    box.client.host, box.client.port, timeout=30
                )
                try:
                    conn.request("GET", "/healthz")
                    assert conn.getresponse().read() is not None
                    box.client.shutdown()
                    conn.request(
                        "POST",
                        "/simulate",
                        body=jsonlib.dumps(
                            {"config": cfg_obj(), "tiles": 2, "seed": 7}
                        ),
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    assert response.status == 503
                    assert response.getheader("Retry-After") is not None
                    assert b"draining" in response.read()
                finally:
                    conn.close()
                release.set()
                assert blocked.result().sorted_ok
            box.thread.join(30)
            assert not box.thread.is_alive()
        # With the loop gone, fresh connections are refused outright.
        with pytest.raises(ServiceError):
            box.client.healthz()
        assert box.holder["drained"] is True


class TestScoringAndPadding:
    def test_unknown_scoring_is_400_not_500(self, service_factory):
        """The registry check runs at parse time, so a bogus scoring is a
        client error — never an internal one from deep in a runner."""
        with service_factory() as box:
            with pytest.raises(ValidationError, match="'scoring'"):
                box.client.simulate(
                    config=cfg_obj(), tiles=2, scoring="warp-speed"
                )
            responses = box.client.stats()["responses"]
            assert responses["validation_errors"] == 1
            assert responses.get("internal_errors", 0) == 0

    def test_unknown_scoring_on_sweep_is_400(self, service_factory):
        with service_factory() as box:
            with pytest.raises(ValidationError, match="'scoring'"):
                box.client.sweep(
                    config=cfg_obj(), sizes=[96], scoring="warp-speed"
                )

    def test_padded_simulate_round_trip(self, service_factory):
        """A padded request is served by a padded sorter and must match
        the local padded result bit for bit."""
        from repro.sort.pairwise import PairwiseMergeSort
        from repro.sort.serialize import results_identical

        cfg = small_config()
        data = generate("worst-case", cfg, cfg.tile_size * 2, seed=0)
        local = PairwiseMergeSort(cfg, mitigation="padding:1").sort(
            data, score_blocks=2, seed=0
        )
        with service_factory() as box:
            reply = box.client.simulate(
                config=cfg_obj(), tiles=2, score_blocks=2,
                mitigation="padding:1",
            )
            assert reply.sorted_ok
            assert results_identical(reply.result, local)
            unpadded = box.client.simulate(
                config=cfg_obj(), tiles=2, score_blocks=2
            )
            assert not results_identical(unpadded.result, local)


    def test_stale_padding_field_is_typed_400(self, service_factory):
        """``padding`` left the wire: every compute endpoint answers a
        body that still carries it with a validation 400 naming the
        ``mitigation`` spelling — no 5xx, no stock-layout result."""
        bodies = {
            "/simulate": {"config": cfg_obj(), "tiles": 2, "padding": 1},
            "/sweep": {"config": cfg_obj(), "sizes": [96], "padding": 1},
            "/jobs": {"config": cfg_obj(), "sizes": [96], "padding": 1},
        }
        import http.client
        import json

        with service_factory() as box:
            for path, body in bodies.items():
                conn = http.client.HTTPConnection(
                    box.client.host, box.client.port, timeout=10
                )
                try:
                    conn.request("POST", path, body=json.dumps(body))
                    response = conn.getresponse()
                    reply = json.loads(response.read())
                finally:
                    conn.close()
                assert response.status == 400, path
                assert reply["kind"] == "validation", path
                assert '"mitigation": "padding:N"' in reply["error"], path
            stats = box.client.stats()
            assert stats["responses"]["validation_errors"] == len(bodies)
            assert stats["responses"]["internal_errors"] == 0
            assert stats["executed"] == {"construct": 0, "simulate": 0, "sweep": 0}


class TestMetricsEndpoint:
    def test_stats_separate_pool_size_from_job_states(self, service_factory):
        with service_factory() as box:
            stats = box.client.stats()
            assert stats["pool_workers"] == 1
            assert stats["jobs"] == {"running": 0, "done": 0, "failed": 0}

    def test_metrics_content_type(self, service_factory):
        import http.client

        with service_factory() as box:
            conn = http.client.HTTPConnection(
                box.client.host, box.client.port, timeout=30
            )
            try:
                conn.request("GET", "/metrics")
                response = conn.getresponse()
                assert response.status == 200
                assert response.getheader("Content-Type") == (
                    "text/plain; version=0.0.4; charset=utf-8"
                )
                response.read()
            finally:
                conn.close()
