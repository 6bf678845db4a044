#!/usr/bin/env python3
"""End-to-end smoke test of the ``repro-mergesort serve`` daemon.

Spawns the real CLI entry point as a subprocess, then drives it over
loopback the way CI (or an operator) would:

1. liveness — poll ``/healthz`` until the daemon answers;
2. fidelity — a served ``/simulate`` must be bit-identical to the same
   sort performed directly in this process;
3. analytic sweep — ``/sweep`` over analytic-eligible families must
   serve the same points whether scored by the closed-form engine
   (``scoring="analytic"``), the simulator (``"vectorized"``), or the
   server-default ``"auto"`` routing;
4. coalescing — 16 concurrent identical ``/simulate`` requests must be
   answered by exactly one underlying sort (checked via ``/stats``);
5. backpressure — with ``--queue-limit 2``, a burst of distinct
   requests must produce at least one HTTP 429, and every request must
   either succeed or be rejected cleanly (no hangs, no deadlock);
6. graceful drain — SIGTERM while a request is in flight: the request
   completes, the process exits 0.

Run:  python examples/service_smoke.py
"""

import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from repro.errors import BackpressureError, ServiceError
from repro.inputs.generators import generate
from repro.service.client import ServiceClient
from repro.sort.pairwise import PairwiseMergeSort
from repro.sort.presets import preset
from repro.sort.serialize import results_identical

PRESET = "mgpu-maxwell"
TILES = 4
SCORE_BLOCKS = 2


def spawn(*extra_args: str) -> tuple[subprocess.Popen, ServiceClient]:
    """Start ``repro-mergesort serve`` on an ephemeral port."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         *extra_args],
        stderr=subprocess.PIPE,
        text=True,
    )
    pattern = re.compile(r"listening on (http://[0-9.]+:\d+)")
    deadline = time.monotonic() + 30
    url = None
    while url is None:
        if time.monotonic() > deadline:
            proc.kill()
            raise SystemExit("daemon never announced its port")
        line = proc.stderr.readline()
        match = pattern.search(line)
        if match:
            url = match.group(1)
    client = ServiceClient(url, timeout=120)
    deadline = time.monotonic() + 10
    while True:
        try:
            assert client.healthz()["status"] == "ok"
            break
        except ServiceError:
            if time.monotonic() > deadline:
                proc.kill()
                raise
            time.sleep(0.1)
    return proc, client


def drain_stderr(proc: subprocess.Popen) -> str:
    out = proc.stderr.read()
    proc.stderr.close()
    return out


def check_fidelity(client: ServiceClient) -> None:
    reply = client.simulate(
        preset=PRESET, tiles=TILES, score_blocks=SCORE_BLOCKS, seed=0
    )
    config = preset(PRESET)
    data = generate("worst-case", config, config.tile_size * TILES, seed=0)
    direct = PairwiseMergeSort(config).sort(
        data, score_blocks=SCORE_BLOCKS, seed=0
    )
    assert reply.sorted_ok, "served sort not sorted"
    assert results_identical(reply.result, direct), (
        "served result differs from direct library call"
    )
    print("fidelity: served /simulate bit-identical to direct call")


def check_analytic_sweep(client: ServiceClient) -> None:
    config = preset(PRESET)
    sizes = [config.tile_size * (1 << k) for k in range(3)]
    kwargs = dict(
        preset=PRESET, inputs=["worst-case", "sorted"], sizes=sizes, seed=0
    )
    analytic = client.sweep(scoring="analytic", **kwargs)
    simulated = client.sweep(scoring="vectorized", **kwargs)
    served_auto = client.sweep(**kwargs)  # server default: "auto"
    assert len(analytic.points) == 2 * len(sizes)
    assert analytic.points == simulated.points, (
        "closed-form sweep differs from simulated sweep"
    )
    assert served_auto.points == analytic.points, (
        "auto routing differs from explicit analytic"
    )
    print(
        f"analytic sweep: {len(analytic.points)} closed-form points "
        "bit-identical to simulated"
    )


def check_coalescing(client: ServiceClient) -> None:
    before = client.stats()["executed"]["simulate"]

    def call():
        return client.simulate(
            preset=PRESET, tiles=TILES * 2, score_blocks=SCORE_BLOCKS, seed=42
        )

    with ThreadPoolExecutor(max_workers=16) as pool:
        replies = [f.result() for f in [pool.submit(call) for _ in range(16)]]

    stats = client.stats()
    executed = stats["executed"]["simulate"] - before
    coalesced = sum(r.coalesced for r in replies)
    # Concurrency is best-effort in a smoke test: some of the 16 may
    # arrive after the first completes, but *some* must have coalesced,
    # and executed + coalesced must account for all 16.
    assert executed + coalesced == 16, (executed, coalesced)
    assert coalesced > 0, "no request was coalesced"
    assert executed < 16, "every request ran its own sort"
    first = replies[0].result
    assert all(results_identical(r.result, first) for r in replies[1:])
    print(
        f"coalescing: 16 identical requests -> {executed} sort(s), "
        f"{coalesced} coalesced"
    )


def check_backpressure(client: ServiceClient) -> None:
    outcomes = {"ok": 0, "rejected": 0}

    def call(seed: int):
        try:
            client.simulate(
                preset=PRESET, tiles=TILES, score_blocks=SCORE_BLOCKS,
                seed=seed,
            )
            return "ok"
        except BackpressureError as exc:
            assert exc.retry_after > 0
            return "rejected"

    with ThreadPoolExecutor(max_workers=12) as pool:
        for outcome in pool.map(call, range(100, 112)):
            outcomes[outcome] += 1

    assert outcomes["ok"] + outcomes["rejected"] == 12
    assert outcomes["rejected"] >= 1, "queue limit 2 never produced a 429"
    assert outcomes["ok"] >= 2, "nothing was admitted"
    assert client.stats()["backpressure"]["rejected"] >= 1
    print(
        f"backpressure: 12 distinct requests -> {outcomes['ok']} served, "
        f"{outcomes['rejected']} rejected with 429"
    )


def check_graceful_drain(proc: subprocess.Popen, client: ServiceClient) -> None:
    with ThreadPoolExecutor(max_workers=1) as pool:
        in_flight = pool.submit(
            client.simulate,
            preset=PRESET, tiles=TILES * 4, score_blocks=8, seed=7,
        )
        time.sleep(0.3)  # let the request reach the daemon
        proc.send_signal(signal.SIGTERM)
        reply = in_flight.result(timeout=120)
    assert reply.sorted_ok, "in-flight request lost during drain"
    code = proc.wait(timeout=60)
    assert code == 0, f"daemon exited {code} after SIGTERM drain"
    print("drain: SIGTERM completed in-flight work and exited 0")


def main() -> None:
    proc, client = spawn("--queue-limit", "2")
    try:
        check_fidelity(client)
        check_analytic_sweep(client)
        check_coalescing(client)
        check_backpressure(client)
        check_graceful_drain(proc, client)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        log = drain_stderr(proc)
        if proc.returncode != 0:
            sys.stderr.write(log)
    print("service smoke: all checks passed")


if __name__ == "__main__":
    main()
