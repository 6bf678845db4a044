"""Tests of the benchmark harness itself: ``python -m pytest benchmarks/e2e``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import compare  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- statistics -------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, q, expected",
    [
        (19, 0.5, None),  # rank 10 leaves 9 beyond it
        (20, 0.5, 10),
        (99, 0.9, None),
        (100, 0.9, 90),
        (999, 0.99, None),
        (1000, 0.99, 990),
    ],
)
def test_percentile_needs_ten_samples_beyond(n, q, expected):
    assert harness.percentile(range(1, n + 1), q) == expected


# -- spans --------------------------------------------------------------------------


def test_self_time_subtracts_child_coverage():
    spans = [
        (0, "sort.vectorized", 0, 100, None, 1),
        (1, "mergepath.partition", 10, 30, 0, 1),
        (2, "dmm.score", 40, 70, 0, 1),
        (3, "dmm.score", 50, 60, 2, 1),
        (4, "dmm.score", 55, 65, 2, 1),  # overlaps its sibling: covered once
    ]
    assert tracing.self_times(spans) == {0: 50, 1: 20, 2: 15, 3: 10, 4: 10}
    metrics = tracing.layer_metrics(spans)
    assert metrics["sort.busy_s"] == pytest.approx(100e-9)
    assert metrics["sort.self_s"] == pytest.approx(50e-9)
    # Nested calls of one layer count once toward its busy time.
    assert metrics["dmm.busy_s"] == pytest.approx(30e-9)
    assert metrics["dmm.score_calls"] == 3
    assert metrics["sort.calls.vectorized"] == 1


def test_traced_run_removes_every_wrapper(tmp_path):
    from repro.mergepath import partition
    from repro.sort import pairwise

    original = partition.partition_many_with_trace
    tracer = tracing.Tracer().install()
    try:
        # Both binding sites carry the same wrapper.
        assert pairwise.partition_many_with_trace is partition.partition_many_with_trace
        assert pairwise.partition_many_with_trace is not original
        workload = workloads.create("simulate_exact", 0, tmp_path)
        workload.setup(tracer=tracer)
        harness.drive(workload, counts=[1], tracer=tracer)
    finally:
        tracer.restore()
    assert tracing.remaining_wrappers() == []
    assert partition.partition_many_with_trace is original
    assert pairwise.partition_many_with_trace is original
    names = {span[1] for span in tracing.op_spans(tracer.spans)}
    assert {"op", "sort.vectorized", "mergepath.partition", "dmm.score"} <= names


# -- compare.py ---------------------------------------------------------------------

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
NOISY = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        (BASE, [x + 0.1 for x in BASE], "lower", "unchanged"),
        (BASE, [x * 0.8 for x in BASE], "lower", "improved"),
        (BASE, [x * 1.2 for x in BASE], "lower", "regressed"),
        (BASE, [x * 1.2 for x in BASE], "higher", "improved"),
        (NOISY, NOISY[::-1], "lower", "unresolved"),
        (NOISY, [x * 0.2 for x in NOISY], "lower", "improved"),  # every B run beats every A run
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, 0.05, better)["verdict"] == expected


def _write_runs(directory: Path, factor: float, labels: dict) -> None:
    spec = json.loads((harness.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    directory.mkdir()
    for seed, base in enumerate(BASE):
        record = {
            "workload": "simulate_exact",
            "seed": seed,
            "labels": labels,
            "attempted": 100,
            "failed": 0,
            "metrics": {m["name"]: base * factor for m in spec["end_to_end"]},
        }
        (directory / f"result-simulate_exact-seed{seed}.json").write_text(json.dumps(record))


def test_compare_refuses_mixed_labels_and_flags_regressions(tmp_path, capsys):
    labels = {"fused_backend": "numpy", "python": "3.11.7", "nproc": 2}
    _write_runs(tmp_path / "a", 1.0, labels)
    _write_runs(tmp_path / "same", 1.0, labels)
    _write_runs(tmp_path / "slow", 1.5, labels)
    _write_runs(tmp_path / "native", 1.0, dict(labels, fused_backend="native"))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "same")]) == 0
    assert "regressed" not in capsys.readouterr().out
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "slow")]) == 1
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "native")]) == 2


# -- plans and checks ---------------------------------------------------------------


@pytest.mark.parametrize("name", harness.WORKLOADS)
def test_same_seed_same_plan_new_seed_same_shape(name, tmp_path):
    a, b, c = (workloads.create(name, seed, tmp_path) for seed in (7, 7, 8))
    plan = a.cycle(0, 1)
    assert plan == b.cycle(0, 1)
    other = c.cycle(0, 1)
    assert [op.cls for op in plan] == [op.cls for op in other]
    assert plan != other


def test_new_seed_gives_new_inputs_of_the_same_shape(tmp_path):
    a, b, c = (workloads.create("simulate_exact", seed, tmp_path) for seed in (7, 7, 8))
    for op_a, op_b, op_c in list(zip(a.cycle(0, 0), b.cycle(0, 0), c.cycle(0, 0)))[:8]:
        x_a, x_b, x_c = (w.prepare(op)[1] for w, op in ((a, op_a), (b, op_b), (c, op_c)))
        assert np.array_equal(x_a, x_b)
        assert x_a.shape == x_c.shape and x_a.dtype == x_c.dtype
        assert not np.array_equal(x_a, x_c)


def test_corrupted_result_counts_as_failed_op(tmp_path):
    workload = workloads.create("simulate_exact", 0, tmp_path)
    workload.setup()
    execute = workload.execute

    def corrupted(caller, prepared):
        result = execute(caller, prepared)
        result.values[[0, -1]] = result.values[[-1, 0]]
        return result

    workload.execute = corrupted
    summary = harness.summarize(harness.drive(workload, counts=[2]))
    assert (summary["attempted"], summary["failed"]) == (2, 2)


def test_oracle_mismatch_fails_the_checked_op(tmp_path):
    workload = workloads.create("simulate_exact", 0, tmp_path)
    workload.setup()
    run = harness.drive(workload, counts=[1])
    assert workload.final_checks() == set()
    (key, (op, values, result)), = workload._first.items()
    rounds = list(result.rounds)
    rounds[-1] = dataclasses.replace(rounds[-1], compute_instructions=rounds[-1].compute_instructions + 1)
    workload._first[key] = (op, values, dataclasses.replace(result, rounds=rounds))
    failed = workload.final_checks()
    assert failed == {op.id}
    assert harness.summarize(harness.mark_failed(run, failed))["failed"] == 1


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    shutil.copy(harness.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "simulate_exact", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
