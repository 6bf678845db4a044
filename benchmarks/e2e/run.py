"""Seeded end-to-end benchmark with per-layer tracing.

    PYTHONPATH=src python benchmarks/e2e/run.py [--workload NAME|all]
        [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]

Each workload runs in a fresh Python process (``worker.py``) against the
public API with its defaults. Every metric is printed as
``workload metric value unit``; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (or, with ``--trace 1``, the per-layer ones) that
``BENCHMARK.json`` lists. One result JSON per workload goes to ``--out``.
The exit code is 0 only when every op succeeded and passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

#: Set-up is measured this many times per run (fresh processes); the
#: median is reported.
SETUP_RUNS = 5

#: Wall-clock cap on one worker process.
WORKER_TIMEOUT_S = 170

#: Units of the end-to-end metrics; per-layer units follow from the name.
UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "samples": "count",
    "service.overhead_ms_per_request": "ms",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + harness.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=harness.REPO / ".bench_e2e")
    args = parser.parse_args(argv)

    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found at {harness.SRC}", file=sys.stderr)
        return 2
    spec = json.loads((harness.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    args.out.mkdir(parents=True, exist_ok=True)

    names = harness.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [run_workload(name, args) for name in names]

    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, report in zip(names, reports):
        line["correct"] = line["correct"] and report["correct"]
        line["attempted"] += report["attempted"]
        line["failed"] += report["failed"]
        for metric in wanted:
            value = report["metrics"].get(metric["name"])
            if value is None:
                print(f"error: {name} did not produce {metric['name']}", file=sys.stderr)
                line["correct"] = False
                continue
            key = metric["name"] if len(names) == 1 else f"{name}.{metric['name']}"
            line["metrics"][key] = {"value": value, "unit": metric["unit"]}
    line["attempted"] = max(line["attempted"], 1)
    print(json.dumps(line))
    return 0 if line["correct"] and line["failed"] == 0 else 1


def run_workload(name: str, args) -> dict:
    """Set-up probes plus one measured worker (and, traced, one replay of
    its ops under the tracer); prints and saves the result."""
    setups = []
    for _ in range(0 if args.trace else SETUP_RUNS - 1):
        probe = _spawn(name, args, ["--setup-only"])
        if probe is not None:
            setups.append(probe["setup_s"])
    result = _spawn(name, args)
    traced = None
    if result is not None and args.trace:
        counts = ",".join(str(c) for c in result["op_counts"])
        traced = _spawn(name, args, ["--replay", counts])
    if result is None or (args.trace and traced is None):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    setups.append(result["setup_s"])
    attempted = result["attempted"] + (traced["attempted"] if traced else 0)
    failed = result["failed"] + (traced["failed"] if traced else 0)

    if traced:
        metrics = {k: v for k, v in traced["layers"].items() if k != "files"}
        metrics["trace_overhead"] = result["throughput_ops_s"] / traced["throughput_ops_s"] - 1
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput_ops_s": result["throughput_ops_s"],
            "latency_p50_ms": result["latency_p50_ms"],
            "latency_p90_ms": result["latency_p90_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
            "error_rate": result["error_rate"],
            "samples": result["attempted"],
        }
        if result["latency_p99_ms"] is not None:
            metrics["latency_p99_ms"] = result["latency_p99_ms"]
    for metric, value in metrics.items():
        print(f"{name} {metric} {value!r} {unit(metric)}")

    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "labels": result["labels"],
        "attempted": attempted,
        "failed": failed,
        "setup_samples": setups,
        "metrics": metrics,
    }
    if traced:
        record["files"] = traced["layers"]["files"]
    kind = "layers" if traced else "result"
    path = args.out / f"{kind}-{name}-seed{args.seed}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def unit(metric: str) -> str:
    """A metric's unit, read off its name."""
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_per_request", "_per_element", "_overhead")):
        return "ratio"
    return "count"


def _spawn(name: str, args, extra=()) -> dict | None:
    """Run ``worker.py`` in a new process group; its last stdout line."""
    cmd = [
        sys.executable,
        str(harness.HERE / "worker.py"),
        name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--out", str(args.out),
        *extra,
        "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=harness.child_env(), start_new_session=True, text=True
    )
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The group holds the worker and any daemon it started.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"error: {name} worker exceeded {WORKER_TIMEOUT_S}s", file=sys.stderr)
        return None
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        print(f"error: {name} worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


if __name__ == "__main__":
    sys.exit(main())
