"""Shared pieces of the end-to-end benchmark: statistics, labels, the driver.

Nothing here imports :mod:`repro` at module level, so ``compare.py`` and
the tests can use the statistics without the simulator on the path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import platform
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"

#: Workload names in the order ``--workload all`` runs them.
WORKLOADS = ("simulate_exact", "sweep_figure", "construct_verify", "service_mixed")

#: A percentile is reported only when this many samples lie beyond it.
BEYOND = 10

#: Every run times at least this many whole cycles, so each op class has
#: enough samples for its median to shrug off a burst of host noise (and
#: every workload has at least 100 ops, so p90 always exists).
MIN_CYCLES = 3

#: Thread-pool variables pinned to 1 in every process the benchmark starts:
#: the load generator and the daemon must not fan out over the 2 cores.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict:
    """Environment for every child process: ``src`` importable, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for name in THREAD_ENV:
        env[name] = "1"
    return env


def labels() -> dict:
    """The run labels ``compare.py`` refuses to mix.

    Imports :mod:`repro`, so call it only where the simulator is on the path.
    """
    from repro.dmm.fused import active_backend

    return {
        "fused_backend": active_backend(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# -- statistics ----------------------------------------------------------------


def percentile(values, q: float) -> float | None:
    """Nearest-rank ``q``-quantile, or ``None`` with fewer than ``BEYOND``
    samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < BEYOND:
        return None
    return ordered[rank - 1]


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


# -- the closed-loop driver ------------------------------------------------------


@dataclass(frozen=True)
class Sample:
    """One timed op: its plan id and class, its caller, how long it took,
    and whether it (and its output check) succeeded."""

    op: int
    cls: tuple
    caller: int
    latency_s: float
    ok: bool


def drive(workload, *, seconds=None, counts=None, tracer=None) -> dict:
    """Run ``workload``'s plan closed-loop, one thread per caller.

    Each caller runs whole plan cycles: at least ``MIN_CYCLES``, then
    another only while the last one suggests it will end within
    ``seconds``. It stops only after a whole ``workload.period`` of cycles
    (the length of the plan's repeating pattern), so every run holds the
    same op mix however many cycles fit. With ``counts`` each caller
    instead runs exactly its first ``counts[caller]`` ops — the traced
    replay of an untraced run.

    Only ``workload.execute`` is timed; preparing inputs and checking
    outputs happen outside the timed window. Returns the samples per
    caller and the window as ``perf_counter_ns`` bounds.
    """
    callers = workload.callers
    start = time.monotonic()

    def run_caller(caller: int) -> list[Sample]:
        samples: list[Sample] = []
        limit = None if counts is None else counts[caller]
        cycle, last = 0, 0.0
        while True:
            if limit is not None:
                if len(samples) >= limit:
                    break
            elif (
                cycle >= MIN_CYCLES
                and cycle % workload.period == 0
                and time.monotonic() - start + last > seconds
            ):
                break
            began = time.monotonic()
            for op in workload.cycle(caller, cycle):
                if limit is not None and len(samples) >= limit:
                    break
                samples.append(_timed(workload, caller, op, tracer))
            last = time.monotonic() - began
            cycle += 1
            if caller == 0 and cycle == MIN_CYCLES:
                # Memory grows with ops run (memos fill), so peak RSS is
                # taken over a fixed amount of work, not a fixed time.
                workload.mark_peak()
        return samples

    window_start = time.perf_counter_ns()
    if callers == 1:
        per_caller = [run_caller(0)]
    else:
        with ThreadPoolExecutor(max_workers=callers) as pool:
            futures = [pool.submit(run_caller, c) for c in range(callers)]
            per_caller = [f.result() for f in futures]
    return {
        "samples": per_caller,
        "window": (window_start, time.perf_counter_ns()),
    }


def _timed(workload, caller: int, op, tracer) -> Sample:
    prepared = workload.prepare(op)
    ok = True
    output = None
    span = tracer.op_span(op.id) if tracer is not None else contextlib.nullcontext()
    began = time.perf_counter()
    try:
        with span:
            output = workload.execute(caller, prepared)
    except Exception as exc:  # noqa: BLE001 - a failed op is a counted result
        ok = False
        workload.note_error(op, exc)
    latency = time.perf_counter() - began
    if ok:
        try:
            ok = bool(workload.check(op, prepared, output))
        except Exception as exc:  # noqa: BLE001 - a crashing check fails the op
            ok = False
            workload.note_error(op, exc)
    return Sample(op=op.id, cls=op.cls, caller=caller, latency_s=latency, ok=ok)


def mark_failed(run: dict, failed_ops) -> dict:
    """Copy of ``run`` with the samples of ``failed_ops`` marked failed."""
    failed_ops = set(failed_ops)
    run = dict(run)
    run["samples"] = [
        [
            s if s.op not in failed_ops else dataclasses.replace(s, ok=False)
            for s in caller
        ]
        for caller in run["samples"]
    ]
    return run


def summarize(run: dict) -> dict:
    """End-to-end numbers of one driven run (set-up and memory excluded).

    Ops of one class do the same work on different seeds, so each op's
    latency is taken as its class's median over the run: a burst of host
    noise that slows a few ops of a class does not move the result.
    Throughput and percentiles are computed over those latencies.
    """
    per_caller = run["samples"]
    samples = [s for caller in per_caller for s in caller]
    attempted = len(samples)
    failed = sum(1 for s in samples if not s.ok)
    by_class: dict[tuple, list[float]] = {}
    for s in samples:
        by_class.setdefault(s.cls, []).append(s.latency_s)
    typical = {cls: statistics.median(values) for cls, values in by_class.items()}
    latencies = [typical[s.cls] * 1e3 for s in samples]
    # Closed loop: each caller's rate is its ops over its own waiting time,
    # so input generation and output checks between ops never count.
    throughput = sum(
        len(caller) / sum(typical[s.cls] for s in caller) for caller in per_caller if caller
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "throughput_ops_s": throughput,
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p90_ms": percentile(latencies, 0.90),
        "latency_p99_ms": percentile(latencies, 0.99),
    }


def op_counts(run: dict) -> list[int]:
    """Ops each caller ran, for a replay with :func:`drive` ``counts``."""
    return [len(caller) for caller in run["samples"]]


def total_latency(run: dict) -> float:
    """Sum of every op's measured latency in seconds."""
    return sum(s.latency_s for caller in run["samples"] for s in caller)


class ErrorLog:
    """Thread-safe log of the first few op errors, printed by the worker."""

    KEEP = 5

    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0
        self.first: list[str] = []

    def add(self, message: str) -> None:
        with self._lock:
            self.count += 1
            if len(self.first) < self.KEEP:
                self.first.append(message)
