"""Fleet-level guarantees of the daemon: coalescing, metrics, quotas.

These scenarios used to run against several worker daemons behind a
shard router. One daemon is now the only serving topology and owns each
guarantee itself, so the same tests drive a single loopback daemon; the
class and test names are kept so their history stays traceable.
"""

import threading

import numpy as np
import pytest

from repro.errors import BackpressureError, ValidationError
from repro.inputs.generators import generate
from repro.service.client import ServiceClient
from repro.sort.pairwise import PairwiseMergeSort
from repro.sort.serialize import config_to_obj, results_identical
from tests.service.conftest import small_config

CFG_OBJ = config_to_obj(small_config())


def _url(box):
    return f"http://{box.client.host}:{box.client.port}"


class TestRouterBasics:
    def test_simulate_through_router_matches_direct(self, service_factory):
        with service_factory() as box:
            served = box.client.simulate(
                config=CFG_OBJ, tiles=4, input="worst-case"
            )
            assert served.sorted_ok
            # The daemon adds transport, not computation: values and
            # per-round replays equal a direct library sort.
            cfg = small_config()
            data = generate("worst-case", cfg, cfg.tile_size * 4, seed=0)
            direct = PairwiseMergeSort(cfg).sort(data, seed=0)
            assert np.array_equal(served.result.values, direct.values)
            assert [r.replays for r in served.result.rounds] == [
                r.replays for r in direct.rounds
            ]

    def test_unknown_endpoint_404(self, service_factory):
        with service_factory() as box:
            with pytest.raises(ValidationError, match="unknown endpoint"):
                box.client.request("GET", "/nope")


class TestFleetWideCoalescing:
    def test_identical_concurrent_requests_execute_once(self, service_factory):
        """N identical requests arriving concurrently cause exactly ONE
        computation; every other caller is served by coalescing."""
        with service_factory() as box:
            executed = []
            release = threading.Event()
            original = box.service._compute_simulate

            def gated(request):
                executed.append(request)
                assert release.wait(30), "gate never released"
                return original(request)

            box.service._compute_simulate = gated

            replies = []
            errors = []

            def call():
                try:
                    client = ServiceClient(_url(box), timeout=90.0)
                    replies.append(
                        client.simulate(
                            config=CFG_OBJ, tiles=4, input="worst-case"
                        )
                    )
                except Exception as exc:  # noqa: BLE001 - collected below
                    errors.append(exc)

            threads = [threading.Thread(target=call) for _ in range(6)]
            for thread in threads:
                thread.start()
            # Hold the primary inside the gated compute until all six
            # requests have reached the daemon, so the rest must join it.
            for _ in range(600):
                if box.service.stats.requests["/simulate"] >= 6:
                    break
                threading.Event().wait(0.05)
            release.set()
            for thread in threads:
                thread.join(60)
            assert not errors, errors
            assert len(executed) == 1, (
                f"daemon ran the computation {len(executed)} times"
            )
            assert len(replies) == 6
            assert sum(r.coalesced for r in replies) == 5
            for reply in replies[1:]:
                assert results_identical(reply.result, replies[0].result)


class TestMetricsEndpoint:
    def test_router_metrics_prometheus_text(self, service_factory):
        with service_factory() as box:
            box.client.simulate(config=CFG_OBJ, tiles=4)
            text = box.client.metrics()
            assert "# TYPE repro_requests_total counter" in text
            assert 'repro_requests_total{path="/simulate"} 1' in text
            assert "# TYPE repro_queue_depth gauge" in text
            assert "repro_coalesce_primary_total 1" in text
            assert 'repro_jobs{state="running"} 0' in text
            assert "repro_chunk_retries_total 0" in text

    def test_worker_metrics_include_result_cache(self, service_factory):
        with service_factory() as box:
            box.client.simulate(config=CFG_OBJ, tiles=4, input="random")
            box.client.simulate(config=CFG_OBJ, tiles=4, input="random")
            text = box.client.metrics()
            assert "# TYPE repro_result_cache_hits_total counter" in text
            assert "repro_result_cache_hits_total 1" in text
            assert "repro_result_cache_misses_total 1" in text
            assert "# TYPE repro_result_cache_bytes gauge" in text
            assert "repro_memo" not in text
            assert 'repro_executed_total{kind="simulate"} 1' in text


class TestQuotas:
    def test_router_quota_429_with_retry_after(self, service_factory):
        with service_factory(quota_per_minute=2) as box:
            client = ServiceClient(_url(box), timeout=30.0, client_id="greedy")
            for _ in range(2):
                client.simulate(config=CFG_OBJ, tiles=2)
            with pytest.raises(BackpressureError, match="quota") as info:
                client.simulate(config=CFG_OBJ, tiles=2)
            assert info.value.retry_after > 0
            # A different client identity still gets served.
            other = ServiceClient(_url(box), timeout=30.0, client_id="patient")
            assert other.simulate(config=CFG_OBJ, tiles=2).sorted_ok
            # Control endpoints are never metered.
            assert client.healthz()["status"] == "ok"
            assert box.client.stats()["backpressure"]["quota_rejected"] == 1

    def test_worker_quota_enforced_without_router(self, service_factory):
        with service_factory(quota_per_minute=1) as box:
            box.client.simulate(config=CFG_OBJ, tiles=2)
            with pytest.raises(BackpressureError, match="quota"):
                box.client.simulate(config=CFG_OBJ, tiles=2)
