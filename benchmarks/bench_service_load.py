"""Service load test — one daemon under concurrent mixed traffic.

Boots a real daemon (the stack ``repro-mergesort serve`` runs, on a
loopback ephemeral port) and fires ≥1000 concurrent mixed requests at
it — simulates and sweeps drawn from a deliberately skewed key
distribution, so identical requests collide in flight and single-flight
coalescing is exercised, plus a couple of chunked job manifests driven
through ``POST /jobs`` to completion.

Recorded into the ``REPRO_BENCH_JSON`` trajectory document (committed
baseline ``BENCH_simulator.json``, CI gate
``benchmarks/check_regression.py --require ...,service_load``):

* ``service_load`` — ``seconds`` is the p50 request latency under
  load; ``p95_seconds``/``p99_seconds`` carry the tail, and
  ``coalesce_rate`` the fraction of single-flight requests served by
  joining an in-flight identical computation instead of executing.
  ``cached`` counts the sweeps answered from the reply cache before
  they reach the single flight.
"""

import asyncio
import queue
import random
import threading
import time
from types import SimpleNamespace

from conftest import record, record_timing

from repro.dmm.fused import active_backend
from repro.errors import BackpressureError
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, run_service
from repro.sort.config import SortConfig
from repro.sort.serialize import config_to_obj

#: Total compute requests fired at the daemon.
TOTAL_REQUESTS = 1000

#: Client threads issuing them (in-flight bound, within the daemon gate).
CONCURRENCY = 16

CFG = SortConfig(elements_per_thread=3, block_size=32, warp_size=32)
CFG_OBJ = config_to_obj(CFG)


def _start_service():
    """Boot the daemon; returns a handle with ``close()``."""
    config = ServiceConfig(
        port=0,
        queue_limit=CONCURRENCY,
        request_timeout=120.0,
        drain_timeout=15.0,
    )
    holder = {}
    ready = threading.Event()

    def runner():
        holder["drained"] = asyncio.run(
            run_service(
                config,
                on_started=lambda s: (holder.update(service=s), ready.set()),
            )
        )

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert ready.wait(30), "service failed to start"
    service = holder["service"]

    def close():
        service.request_shutdown()
        thread.join(60)
        assert not thread.is_alive(), "service thread failed to exit"

    return SimpleNamespace(
        service=service, close=close,
        url=f"http://127.0.0.1:{service.port}",
    )


def _request_plan(rng):
    """~1000 mixed requests over a skewed key space.

    A Zipf-ish skew (a few hot fingerprints drawn often, a long tail of
    distinct ones) is what makes coalescing measurable: hot keys
    collide in flight, tail keys keep the daemon computing.
    """
    simulate_variants = [
        {"input": name, "tiles": tiles, "seed": seed}
        for name in ("random", "worst-case")
        for tiles in (2, 4)
        for seed in range(8)
    ]
    sweep_variants = [
        {
            "inputs": [name],
            "sizes": [CFG.tile_size * 2, CFG.tile_size * 4],
            "seed": seed,
        }
        for name in ("random", "sorted")
        for seed in range(4)
    ]
    plan = []
    for _ in range(TOTAL_REQUESTS):
        if rng.random() < 0.85:
            # Hot third of the simulate variants absorbs most draws.
            pool = (
                simulate_variants[: len(simulate_variants) // 3]
                if rng.random() < 0.7
                else simulate_variants
            )
            plan.append(("simulate", rng.choice(pool)))
        else:
            plan.append(("sweep", rng.choice(sweep_variants)))
    return plan


def _drain_plan(url, plan):
    """Issue the plan from CONCURRENCY threads; returns per-request
    (latency, coalesced) samples and any errors."""
    work = queue.Queue()
    for item in plan:
        work.put(item)
    samples = []
    errors = []
    lock = threading.Lock()

    def worker():
        client = ServiceClient(url, timeout=150.0)
        while True:
            try:
                kind, kwargs = work.get_nowait()
            except queue.Empty:
                return
            began = time.perf_counter()
            reply = None
            try:
                # Honor Retry-After on backpressure like a well-behaved
                # client; the backoff stays inside the measured latency.
                for attempt in range(6):
                    try:
                        if kind == "simulate":
                            reply = client.simulate(
                                config=CFG_OBJ, score_blocks=2, **kwargs
                            )
                        else:
                            reply = client.sweep(
                                config=CFG_OBJ, score_blocks=2, **kwargs
                            )
                        break
                    except BackpressureError as exc:
                        if attempt == 5:
                            raise
                        time.sleep(min(exc.retry_after, 0.5))
            except Exception as exc:  # noqa: BLE001 - reported below
                with lock:
                    errors.append(f"{kind} {kwargs}: {exc}")
                continue
            elapsed = time.perf_counter() - began
            with lock:
                samples.append((elapsed, reply.coalesced))

    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(CONCURRENCY)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(300)
    return samples, errors


def _percentile(latencies, q):
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def test_service_load(benchmark):
    handle = _start_service()
    state = {}

    def run_load():
        plan = _request_plan(random.Random(0))
        began = time.perf_counter()
        samples, errors = _drain_plan(handle.url, plan)
        state["wall"] = time.perf_counter() - began
        state["samples"] = samples
        state["errors"] = errors
        # The plan's own outcomes, before the job chunks add theirs.
        stats = ServiceClient(handle.url).stats()
        state["batching"] = stats["batching"]
        state["cached"] = stats["reply_cache"]["/sweep"]["hits"]
        # Two chunked manifests ride along, exercising POST /jobs and
        # the am-I-done probe under the same load.
        client = ServiceClient(handle.url, timeout=150.0)
        for name in ("random", "worst-case"):
            ack = client.submit_job(
                {
                    "config": CFG_OBJ,
                    "inputs": [name],
                    "sizes": [CFG.tile_size * k for k in (2, 4, 8)],
                    "score_blocks": 2,
                    "chunk_sizes": 1,
                }
            )
            status = client.wait_for_job(ack["job_id"], timeout=120.0)
            assert status["status"] == "done", status
        return samples

    benchmark.pedantic(run_load, rounds=1, iterations=1)

    samples, errors = state["samples"], state["errors"]
    assert not errors, errors[:5]
    assert len(samples) == TOTAL_REQUESTS

    latencies = [latency for latency, _ in samples]
    p50 = _percentile(latencies, 0.50)
    p95 = _percentile(latencies, 0.95)
    p99 = _percentile(latencies, 0.99)

    # Coalesce rate, from the daemon's single flight. A repeated sweep
    # is answered from the reply cache on the event loop and never
    # reaches it; a simulate always does (its cache lookup runs inside
    # the computation).
    batching, cached = state["batching"], state["cached"]
    executed = batching["primary"]
    coalesced = batching["coalesced"]
    rate = coalesced / max(1, executed + coalesced)
    handle.close()

    # Every request had exactly one outcome, and the skewed plan
    # measurably coalesced: fewer executions than requests.
    assert executed + coalesced + cached == TOTAL_REQUESTS
    assert coalesced > 0, "no coalescing under concurrent load"

    record(
        f"Service load: {TOTAL_REQUESTS} mixed requests, "
        f"{CONCURRENCY} clients in {state['wall']:.2f}s",
        f"  latency p50={p50 * 1e3:.1f}ms p95={p95 * 1e3:.1f}ms "
        f"p99={p99 * 1e3:.1f}ms",
        f"  coalesced {coalesced}/{executed + coalesced} ({rate:.0%}), "
        f"{cached} sweeps from the reply cache",
    )
    record_timing(
        "service_load",
        seconds=p50,
        p95_seconds=round(p95, 6),
        p99_seconds=round(p99, 6),
        requests=TOTAL_REQUESTS,
        concurrency=CONCURRENCY,
        coalesce_rate=round(rate, 4),
        cached=cached,
        wall_seconds=round(state["wall"], 3),
        # The daemon's "auto" scoring routes simulated sorts to fused.
        backend=active_backend(),
    )
