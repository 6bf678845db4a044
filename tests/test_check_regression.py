"""Behavior of the harness-speed regression gate (benchmarks/check_regression.py).

The gate runs as a standalone script in CI, so it is tested the same way:
as a subprocess over small synthetic timing documents. Covered here: the
pass/fail threshold, the non-gating of one-sided timings, the min/IQR
noise annotations, and the Python-version provenance (a prominent
mismatch warning plus both versions named in every failure message).
"""

import json
import platform
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"


def doc(timings, python=None):
    return {
        "schema": 1,
        "python": python or platform.python_version(),
        "timings": timings,
    }


def run_gate(tmp_path, current, baseline, *extra_args):
    current_path = tmp_path / "current.json"
    baseline_path = tmp_path / "baseline.json"
    current_path.write_text(json.dumps(current))
    baseline_path.write_text(json.dumps(baseline))
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(current_path), str(baseline_path),
         *extra_args],
        capture_output=True,
        text=True,
    )


class TestThreshold:
    def test_within_threshold_passes(self, tmp_path):
        proc = run_gate(
            tmp_path,
            doc({"exact": {"seconds": 0.15}}),
            doc({"exact": {"seconds": 0.10}}),
        )
        assert proc.returncode == 0
        assert "within threshold" in proc.stdout

    def test_regression_fails(self, tmp_path):
        proc = run_gate(
            tmp_path,
            doc({"exact": {"seconds": 0.30}}),
            doc({"exact": {"seconds": 0.10}}),
        )
        assert proc.returncode == 1
        assert "3.00x" in proc.stderr

    def test_custom_threshold(self, tmp_path):
        proc = run_gate(
            tmp_path,
            doc({"exact": {"seconds": 0.30}}),
            doc({"exact": {"seconds": 0.10}}),
            "--threshold", "4.0",
        )
        assert proc.returncode == 0

    def test_one_sided_timings_never_gate(self, tmp_path):
        """A new benchmark (or a removed one) must not require regenerating
        the baseline in the same commit."""
        proc = run_gate(
            tmp_path,
            doc({"brand_new": {"seconds": 99.0}}),
            doc({"retired": {"seconds": 0.001}}),
        )
        assert proc.returncode == 0
        assert "no baseline, not gated" in proc.stdout
        assert "baseline only" in proc.stdout


class TestMalformedEntries:
    """A baseline whose entry shape predates the current run's must warn
    and skip, never crash the gate (adding a row like ``analytic_sweep``
    can't break CI on older baselines)."""

    def test_baseline_entry_without_seconds_is_skipped(self, tmp_path):
        proc = run_gate(
            tmp_path,
            doc({"analytic_sweep": {"seconds": 0.001},
                 "exact": {"seconds": 0.10}}),
            doc({"analytic_sweep": {"comment": "placeholder, no timing"},
                 "exact": {"seconds": 0.10}}),
        )
        assert proc.returncode == 0
        assert "malformed baseline entry" in proc.stderr
        assert "skipped, not gated" in proc.stderr
        assert "exact" in proc.stdout  # well-formed rows still gate

    def test_current_entry_without_seconds_is_skipped(self, tmp_path):
        proc = run_gate(
            tmp_path,
            doc({"exact": {"minutes": 1}}),
            doc({"exact": {"seconds": 0.10}}),
        )
        assert proc.returncode == 0
        assert "malformed current entry" in proc.stderr

    def test_non_dict_entry_is_skipped(self, tmp_path):
        proc = run_gate(
            tmp_path,
            doc({"exact": {"seconds": 0.10}}),
            doc({"exact": 0.10}),
        )
        assert proc.returncode == 0
        assert "malformed baseline entry" in proc.stderr

    def test_malformed_entry_never_masks_a_real_regression(self, tmp_path):
        proc = run_gate(
            tmp_path,
            doc({"broken": {"seconds": 9.0}, "exact": {"seconds": 0.50}}),
            doc({"broken": {}, "exact": {"seconds": 0.10}}),
        )
        assert proc.returncode == 1
        assert "exact" in proc.stderr


class TestNoiseAnnotations:
    def test_min_and_iqr_printed(self, tmp_path):
        proc = run_gate(
            tmp_path,
            doc({"exact": {"seconds": 0.15, "min_seconds": 0.12,
                           "iqr_seconds": 0.03}}),
            doc({"exact": {"seconds": 0.10}}),
        )
        assert proc.returncode == 0
        assert "min 0.1200s" in proc.stdout
        assert "iqr ±0.0300s" in proc.stdout

    def test_entries_without_stats_still_compare(self, tmp_path):
        proc = run_gate(
            tmp_path,
            doc({"exact": {"seconds": 0.10}}),
            doc({"exact": {"seconds": 0.10}}),
        )
        assert proc.returncode == 0
        assert "min " not in proc.stdout


class TestPythonVersionProvenance:
    def test_matching_versions_no_warning(self, tmp_path):
        proc = run_gate(
            tmp_path,
            doc({"exact": {"seconds": 0.10}}),
            doc({"exact": {"seconds": 0.10}}),
        )
        assert "WARNING" not in proc.stderr

    def test_mismatch_warns_prominently(self, tmp_path):
        proc = run_gate(
            tmp_path,
            doc({"exact": {"seconds": 0.10}}, python="3.12.4"),
            doc({"exact": {"seconds": 0.10}}, python="3.11.7"),
        )
        assert proc.returncode == 0  # mismatch alone never fails the gate
        assert "WARNING: Python version mismatch" in proc.stderr
        assert "3.11.7" in proc.stderr
        assert "3.12.4" in proc.stderr
        assert "=" * 72 in proc.stderr

    def test_failure_message_names_both_versions(self, tmp_path):
        proc = run_gate(
            tmp_path,
            doc({"exact": {"seconds": 0.50}}, python="3.12.4"),
            doc({"exact": {"seconds": 0.10}}, python="3.11.7"),
        )
        assert proc.returncode == 1
        assert "baseline Python 3.11.7" in proc.stderr
        assert "current Python 3.12.4" in proc.stderr


class TestDocumentValidation:
    def test_rejects_non_bench_document(self, tmp_path):
        proc = run_gate(tmp_path, {"not": "a bench doc"}, doc({}))
        assert proc.returncode != 0
        assert "no 'timings' object" in proc.stderr

    def test_committed_baseline_is_loadable(self, tmp_path):
        """The default baseline at the repo root must parse and gate."""
        baseline = json.loads(
            (SCRIPT.parent.parent / "BENCH_simulator.json").read_text()
        )
        assert isinstance(baseline["timings"], dict)
        assert "sweep_exact" in baseline["timings"]
        proc = run_gate(tmp_path, baseline, baseline)
        assert proc.returncode == 0


class TestRequiredRows:
    """``--require`` closes the silent-row-drop hole: a refactor that
    stops producing a gated benchmark row must fail the gate, not pass
    it vacuously."""

    def test_present_rows_pass(self, tmp_path):
        numpy = {"backend": "numpy"}
        proc = run_gate(
            tmp_path,
            doc({"exact": {"seconds": 0.11, **numpy},
                 "sweep": {"seconds": 0.2, **numpy}}),
            doc({"exact": {"seconds": 0.10, **numpy},
                 "sweep": {"seconds": 0.2, **numpy}}),
            "--require", "exact,sweep",
        )
        assert proc.returncode == 0

    def test_row_missing_from_current_fails(self, tmp_path):
        proc = run_gate(
            tmp_path,
            doc({"sweep": {"seconds": 0.2}}),
            doc({"exact": {"seconds": 0.10}, "sweep": {"seconds": 0.2}}),
            "--require", "exact",
        )
        assert proc.returncode == 1
        assert "required row missing from the current document" in proc.stderr

    def test_row_missing_from_baseline_fails(self, tmp_path):
        proc = run_gate(
            tmp_path,
            doc({"exact": {"seconds": 0.10}}),
            doc({}),
            "--require", "exact",
        )
        assert proc.returncode == 1
        assert "required row missing from the baseline document" in proc.stderr

    def test_malformed_required_row_fails(self, tmp_path):
        """A required row that exists but is skipped as malformed must
        still fail — otherwise the skip path reopens the hole."""
        proc = run_gate(
            tmp_path,
            doc({"exact": {"note": "no seconds"}}),
            doc({"exact": {"seconds": 0.10}}),
            "--require", "exact",
        )
        assert proc.returncode == 1
        assert "malformed" in proc.stderr

    def test_unrequired_missing_rows_still_pass(self, tmp_path):
        proc = run_gate(
            tmp_path,
            doc({"exact": {"seconds": 0.11}}),
            doc({"exact": {"seconds": 0.10}, "gone": {"seconds": 0.5}}),
        )
        assert proc.returncode == 0


class TestBackends:
    """A timing gates only against a baseline measured on the same
    backend; a required row must name its backend on both sides."""

    @staticmethod
    def row(seconds, backend=None):
        entry = {"seconds": seconds}
        if backend is not None:
            entry["backend"] = backend
        return entry

    def test_same_backend_gates(self, tmp_path):
        proc = run_gate(
            tmp_path,
            doc({"exact": self.row(0.30, "native")}),
            doc({"exact": self.row(0.10, "native")}),
            "--require", "exact",
        )
        assert proc.returncode == 1
        assert "3.00x" in proc.stderr

    def test_required_row_without_backend_fails(self, tmp_path):
        for current, baseline, side in (
            (self.row(0.10), self.row(0.10, "numpy"), "current"),
            (self.row(0.10, "numpy"), self.row(0.10), "baseline"),
        ):
            proc = run_gate(
                tmp_path, doc({"exact": current}), doc({"exact": baseline}),
                "--require", "exact",
            )
            assert proc.returncode == 1
            assert f"names no backend in the {side} document" in proc.stderr

    def test_required_row_on_another_backend_fails(self, tmp_path):
        """A native run of a numpy-recorded row must not pass just
        because native is faster."""
        proc = run_gate(
            tmp_path,
            doc({"exact": self.row(0.01, "native")}),
            doc({"exact": self.row(0.10, "numpy")}),
            "--require", "exact",
        )
        assert proc.returncode == 1
        assert "measured on backend native" in proc.stderr
        assert "recorded on numpy" in proc.stderr

    def test_unrequired_backend_mismatch_is_not_gated(self, tmp_path):
        proc = run_gate(
            tmp_path,
            doc({"exact": self.row(0.50, "numpy")}),
            doc({"exact": self.row(0.10, "native")}),
        )
        assert proc.returncode == 0
        assert "not gated" in proc.stderr

    def test_committed_rows_all_name_a_backend(self):
        baseline = json.loads(
            (SCRIPT.parent.parent / "BENCH_simulator.json").read_text()
        )
        for name, entry in baseline["timings"].items():
            assert entry.get("backend") in ("numpy", "native"), name
