"""Gate harness-speed regressions against the committed baseline.

Usage::

    python benchmarks/check_regression.py CURRENT.json [BASELINE.json]

``CURRENT.json`` is the document a benchmark run wrote via
``REPRO_BENCH_JSON``; the baseline defaults to ``BENCH_simulator.json``
at the repository root. The check fails (exit 1) when any timing present
in both documents is more than ``--threshold`` times slower than its
baseline. CI runners are noisy and slower than the machines baselines are
recorded on, so the default threshold is a deliberately loose 2×: it
catches accidental re-introduction of per-tile Python loops or quadratic
passes, not single-digit-percent drift.

Timings present in only one document are reported but never fail the
check, so adding a benchmark does not require regenerating the baseline
in the same commit. Likewise, an entry that is present by name but
malformed (not an object, or without a numeric ``seconds``) is warned
about and skipped rather than crashing the gate: an older committed
baseline must never be able to break CI just because the fresh run grew
a new row shape.

That lenience has a hole: a refactor that silently stops *producing* a
row (or mangles it) would drop the row out of the gated set and pass.
``--require NAME[,NAME...]`` closes it for load-bearing rows — each
named timing must be present and well-formed in both documents or the
check fails. CI requires the engine-critical rows
(``exact_vectorized``, ``sweep_exact``, ``analytic_sweep``) so an
execution-engine change can neither slow them past the threshold nor
un-measure them.

Each document records the Python version it was measured under. A
mismatch (e.g. a 3.11-recorded baseline gated on a 3.12 CI runner) does
not fail the check by itself — interpreter speed differences are part of
what the loose threshold absorbs — but it is warned about prominently and
both versions are named in any failure message, so a "regression" that is
really an interpreter change is diagnosable from the CI log alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_simulator.json"


def load_document(path: Path) -> dict:
    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document.get("timings"), dict):
        raise SystemExit(f"{path}: no 'timings' object (not a bench document?)")
    return document


def _seconds(entry) -> float | None:
    """The entry's ``seconds`` as a float, or ``None`` when malformed."""
    if not isinstance(entry, dict):
        return None
    value = entry.get("seconds")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _noise_note(entry: dict) -> str:
    """Optional min/IQR annotation for one timing entry."""
    parts = []
    if "min_seconds" in entry:
        parts.append(f"min {float(entry['min_seconds']):.4f}s")
    if "iqr_seconds" in entry:
        parts.append(f"iqr ±{float(entry['iqr_seconds']):.4f}s")
    return f"  ({', '.join(parts)})" if parts else ""


def compare(
    current: dict[str, dict],
    baseline: dict[str, dict],
    threshold: float,
    *,
    current_python: str = "unknown",
    baseline_python: str = "unknown",
) -> list[str]:
    """Return a list of human-readable failures (empty = pass)."""
    failures = []
    for name in sorted(set(current) & set(baseline)):
        now = _seconds(current[name])
        then = _seconds(baseline[name])
        if now is None or then is None:
            side = "current" if now is None else "baseline"
            print(
                f"  WARNING: {name}: malformed {side} entry (no numeric "
                f"'seconds') — skipped, not gated",
                file=sys.stderr,
            )
            continue
        ratio = now / then if then > 0 else float("inf")
        status = "FAIL" if ratio > threshold else "ok"
        print(
            f"  {name:24s} baseline {then:8.4f}s  current {now:8.4f}s  "
            f"ratio {ratio:5.2f}x  [{status}]{_noise_note(current[name])}"
        )
        if ratio > threshold:
            failures.append(
                f"{name}: {now:.4f}s is {ratio:.2f}x the baseline "
                f"{then:.4f}s (threshold {threshold:.1f}x; baseline Python "
                f"{baseline_python}, current Python {current_python})"
            )
    for name in sorted(set(current) - set(baseline)):
        print(f"  {name:24s} (new — no baseline, not gated)")
    for name in sorted(set(baseline) - set(current)):
        print(f"  {name:24s} (baseline only — not measured this run)")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="timing JSON from this run")
    parser.add_argument(
        "baseline",
        type=Path,
        nargs="?",
        default=DEFAULT_BASELINE,
        help=f"committed baseline (default: {DEFAULT_BASELINE.name})",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="max allowed current/baseline ratio (default 2.0)",
    )
    parser.add_argument(
        "--require",
        default=None,
        metavar="NAME[,NAME...]",
        help="timing rows that must be present and well-formed in BOTH "
        "documents (fail instead of skip when missing/malformed)",
    )
    args = parser.parse_args(argv)

    current_doc = load_document(args.current)
    baseline_doc = load_document(args.baseline)
    current_python = str(current_doc.get("python", "unknown"))
    baseline_python = str(baseline_doc.get("python", "unknown"))
    if current_python != baseline_python:
        banner = (
            f"WARNING: Python version mismatch — baseline {args.baseline.name} "
            f"was recorded on Python {baseline_python}, this run uses Python "
            f"{current_python}. Timing ratios partly reflect the interpreter, "
            "not just the harness."
        )
        print("=" * 72, file=sys.stderr)
        print(banner, file=sys.stderr)
        print("=" * 72, file=sys.stderr)
    print(f"comparing {args.current} against {args.baseline}:")
    failures = compare(
        current_doc["timings"],
        baseline_doc["timings"],
        args.threshold,
        current_python=current_python,
        baseline_python=baseline_python,
    )
    required = [
        name.strip()
        for name in (args.require or "").split(",")
        if name.strip()
    ]
    for name in required:
        for side, timings in (
            ("current", current_doc["timings"]),
            ("baseline", baseline_doc["timings"]),
        ):
            if name not in timings:
                failures.append(
                    f"{name}: required row missing from the {side} document"
                )
            elif _seconds(timings[name]) is None:
                failures.append(
                    f"{name}: required row malformed in the {side} document "
                    "(no numeric 'seconds')"
                )
    if not set(current_doc["timings"]) & set(baseline_doc["timings"]):
        print("no overlapping timings — nothing gated", file=sys.stderr)
    if failures:
        print("\nharness speed regression:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("harness speed within threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
