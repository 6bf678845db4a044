"""Run one workload in this (fresh) process and print its result as JSON.

Started by ``run.py``; not meant to be run by hand::

    python benchmarks/e2e/worker.py WORKLOAD --seed N --seconds S \\
        --out DIR --spawned-at T [--setup-only | --replay C0,C1,...]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process, so set-up time covers interpreter start and imports.
``--replay`` runs the traced pass: exactly ``C0`` ops of caller 0's plan
(and so on) under the tracer, reporting per-layer metrics. It runs in its
own process because a second pass in one process runs on a warmer heap and
would make tracing look cheaper than it is.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

sys.path.insert(0, str(harness.SRC))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--replay", type=lambda s: [int(c) for c in s.split(",")])
    args = parser.parse_args(argv)

    import tracing
    import workloads

    tracer = tracing.Tracer().install() if args.replay else None
    workload = workloads.create(args.workload, args.seed, args.out)
    try:
        try:
            workload.setup(tracer=tracer)
            workload.warmup()
            setup_s = time.monotonic() - args.spawned_at
            if args.setup_only:
                return _emit({"setup_s": setup_s})
            workload.mark_start()
            run = harness.drive(workload, seconds=args.seconds, counts=args.replay, tracer=tracer)
            workload.mark_end()
            counters = workload.layer_counters()
            if tracer is None:
                run = harness.mark_failed(run, workload.final_checks())
        finally:
            workload.teardown()
    finally:
        if tracer is not None:
            tracer.restore()
    if workload.errors.count:
        print(f"[{workload.name}] {workload.errors.count} op errors:", file=sys.stderr)
        for line in workload.errors.first:
            print(f"  {line}", file=sys.stderr)

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": workload.peak_rss_mb(),
        "labels": harness.labels(),
        "op_counts": harness.op_counts(run),
        **harness.summarize(run),
    }
    if tracer is not None:
        left = tracing.remaining_wrappers()
        if left:
            raise RuntimeError(f"tracing wrappers left installed: {left}")
        result["layers"] = layers(args, tracer, workload, run, counters)
    return _emit(result)


def layers(args, tracer, workload, run: dict, counters: dict) -> dict:
    """Per-layer metrics of a traced run; writes the span files."""
    import tracing

    spans_path = args.out / f"spans-{args.workload}-{args.seed}-{time.time_ns()}.jsonl"
    tracer.write(spans_path)
    files = {"spans": str(spans_path)}
    daemon = []
    if getattr(workload, "daemon_spans_path", None) is not None:
        daemon = tracing.in_window(tracing.read_spans(workload.daemon_spans_path), run["window"])
        files["daemon_spans"] = str(workload.daemon_spans_path)

    metrics = tracing.layer_metrics(tracing.op_spans(tracer.spans), daemon)
    lookups = tracer.memo_hits + tracer.memo_misses
    metrics["dmm.memo_hit_ratio"] = tracer.memo_hits / lookups if lookups else 0.0
    replays, elements = tracer.fidelity
    metrics["dmm.replays_per_element"] = replays / elements if elements else 0.0
    requests = sum(len(c) for c in run["samples"])
    # What a request waits for beyond the daemon's work and the client's
    # decoding: transport, parsing, admission, locks, coalesced waits.
    overhead = (
        harness.total_latency(run)
        - metrics["service.compute_s"]
        - metrics["service.encode_s"]
        - metrics["service.decode_s"]
    )
    metrics["service.overhead_ms_per_request"] = overhead / requests * 1e3 if daemon else 0.0
    metrics.update(
        {
            "service.connections_per_request": 0.0,
            "service.coalesced_ratio": 0.0,
            "service.rejected": 0,
            "service.peak_in_flight": 0,
        }
    )
    metrics.update(counters)
    metrics["files"] = files
    return metrics


def _emit(result: dict) -> int:
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
