"""Benchmark-suite configuration.

Each ``bench_*`` module regenerates one figure (or theory check) of the
paper. The pytest-benchmark timings measure the *harness* (construction and
simulation speed); the *figure data* — simulated throughput, slowdown
percentages, conflicts per element — is printed to the terminal at the end
of the run via the collected ``FIGURE_LINES`` so `pytest benchmarks/
--benchmark-only -s` doubles as the reproduction report.

Harness timings additionally flow through :func:`record_timing` into a
machine-readable JSON document, so the simulator's own performance is a
tracked trajectory rather than terminal noise: set ``REPRO_BENCH_JSON`` to
a path and the session writes ``{"timings": {name: {...}}}`` there at exit
(see ``BENCH_simulator.json`` for the committed baseline and
``benchmarks/check_regression.py`` for the CI gate).

Environment knobs:

* ``REPRO_BENCH_MAX_ELEMENTS`` — sweep ceiling (default 3e8, the paper's
  largest size; already cheap because large sizes use the calibrated
  synthesis path).
* ``REPRO_BENCH_JSON`` — where to write the timing document (off when
  unset).
"""

import json
import os
import platform

FIGURE_LINES: list[str] = []

TIMINGS: dict[str, dict] = {}


def record(*lines: str) -> None:
    """Collect report lines to emit at session end."""
    FIGURE_LINES.extend(lines)


def record_timing(
    name: str,
    seconds: float,
    *,
    backend: str,
    min_seconds: float | None = None,
    iqr_seconds: float | None = None,
    **extra,
) -> None:
    """Record one named harness timing for the JSON trajectory document.

    ``seconds`` should be a robust statistic (the benchmark median).
    ``backend`` names what ran the timed code: ``"native"`` when it
    dispatched to the compiled scoring kernels (``fused`` scoring, or
    ``auto`` routed to it, with the extension live), else ``"numpy"``;
    the regression gate compares a row only with a baseline row of the
    same backend.
    ``min_seconds`` and ``iqr_seconds`` carry the distribution's floor and
    spread so ``check_regression.py`` can tell a real slowdown (min moved)
    from a noisy runner (median moved, min stable, wide IQR). ``extra``
    fields (problem size, scoring mode, …) are stored verbatim.
    """
    entry = {"seconds": round(float(seconds), 6), "backend": backend}
    if min_seconds is not None:
        entry["min_seconds"] = round(float(min_seconds), 6)
    if iqr_seconds is not None:
        entry["iqr_seconds"] = round(float(iqr_seconds), 6)
    entry.update(extra)
    TIMINGS[name] = entry


def max_elements() -> int:
    return int(os.environ.get("REPRO_BENCH_MAX_ELEMENTS", 300_000_000))


def _write_timings_json(path: str) -> None:
    document = {
        "schema": 1,
        "python": platform.python_version(),
        "timings": dict(sorted(TIMINGS.items())),
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")


def pytest_terminal_summary(terminalreporter):
    if FIGURE_LINES:
        terminalreporter.write_sep("=", "paper figure reproduction summary")
        for line in FIGURE_LINES:
            terminalreporter.write_line(line)
    json_path = os.environ.get("REPRO_BENCH_JSON")
    if json_path and TIMINGS:
        _write_timings_json(json_path)
        terminalreporter.write_line(
            f"harness timings written to {json_path} "
            f"({len(TIMINGS)} entries)"
        )
