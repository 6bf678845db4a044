"""CLI smoke tests (everything runs through main() with small sizes)."""

import pytest

from repro.cli import main


class TestConstruct:
    def test_small_e(self, capsys):
        assert main(["construct", "--warp", "16", "-E", "7"]) == 0
        out = capsys.readouterr().out
        assert "aligned=49" in out
        assert "bank 15" in out

    def test_large_e(self, capsys):
        assert main(["construct", "--warp", "16", "-E", "9"]) == 0
        out = capsys.readouterr().out
        assert "aligned=80" in out


class TestSimulate:
    def test_worst_case_run(self, capsys):
        assert (
            main(
                ["simulate", "--preset", "mgpu-maxwell", "--tiles", "4",
                 "--input", "worst-case", "--score-blocks", "2"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sorted correctly: True" in out
        assert "Melem/s" in out

    def test_random_run(self, capsys):
        assert (
            main(["simulate", "--preset", "mgpu-maxwell", "--tiles", "2",
                  "--input", "random"])
            == 0
        )
        assert "sorted correctly: True" in capsys.readouterr().out


class TestSweep:
    def test_small_sweep(self, capsys):
        assert (
            main(
                ["sweep", "--preset", "mgpu-maxwell",
                 "--max-elements", "1000000",
                 "--exact-threshold", "262144"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "worst-case vs random" in out
        assert "slowdown" in out


class TestFigure:
    def test_figure1(self, capsys):
        assert main(["figure", "1"]) == 0
        assert "aligned=48" in capsys.readouterr().out

    def test_figure3(self, capsys):
        assert main(["figure", "3"]) == 0
        out = capsys.readouterr().out
        assert "aligned=49" in out and "aligned=80" in out

    def test_theory(self, capsys):
        assert main(["figure", "theory", "--markdown"]) == 0
        assert "| 32 | 15 | small | 225 | 225 |" in capsys.readouterr().out

    @pytest.mark.slow
    def test_figure6_small(self, capsys):
        assert main(["figure", "6", "--max-elements", "2000000"]) == 0
        assert "Figure 6" in capsys.readouterr().out


class TestAnalyze:
    def test_table_and_theory_lines(self, capsys):
        assert main(["analyze", "--preset", "mgpu-maxwell", "--tiles", "4"]) == 0
        out = capsys.readouterr().out
        assert "beta1" in out and "worst-case" in out
        assert "balls-in-bins" in out


class TestJsonExport:
    def test_figure3_json(self, tmp_path, capsys):
        target = tmp_path / "fig3.json"
        assert main(["figure", "3", "--json", str(target)]) == 0
        import json

        data = json.loads(target.read_text())
        assert data["small"]["aligned"] == 49
        assert data["large"]["aligned"] == 80

    def test_theory_json(self, tmp_path):
        target = tmp_path / "theory.json"
        assert main(["figure", "theory", "--json", str(target)]) == 0
        import json

        rows = json.loads(target.read_text())["rows"]
        assert any(r["E"] == 15 and r["predicted"] == 225 for r in rows)


class TestMemoReporting:
    def test_simulate_prints_memo_stats(self, capsys):
        assert (
            main(["simulate", "--preset", "mgpu-maxwell", "--tiles", "2",
                  "--input", "worst-case"])
            == 0
        )
        out = capsys.readouterr().out
        assert "memoized scoring:" in out
        assert "hit rate" in out

    def test_no_memo_flag_disables_reporting(self, capsys):
        assert (
            main(["simulate", "--preset", "mgpu-maxwell", "--tiles", "2",
                  "--input", "worst-case", "--no-memo"])
            == 0
        )
        out = capsys.readouterr().out
        assert "sorted correctly: True" in out
        assert "memoized scoring:" not in out

    def test_cache_stats_includes_conflict_memo(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "conflict memo (this process):" in capsys.readouterr().out


class TestBenchKernels:
    """``bench kernels`` emits record_timing-shaped rows the regression
    gate can consume."""

    def test_prints_table_and_writes_json(self, tmp_path, capsys):
        target = tmp_path / "kernels.json"
        assert (
            main(["bench", "kernels", "--preset", "mgpu-maxwell",
                  "--tiles", "2", "--repeat", "2", "--json", str(target)])
            == 0
        )
        out = capsys.readouterr().out
        assert "kernel_merge_pairs" in out
        assert "kernel_sort_fused" in out
        # The counting kernels run on both backends, so their rows always do.
        assert "kernel_tile_merge_counts" in out
        assert "kernel_probe_tile_counts" in out
        import json

        document = json.loads(target.read_text())
        assert document["schema"] == 1
        for entry in document["timings"].values():
            # The exact shape check_regression._seconds/_noise_note read.
            assert isinstance(entry["seconds"], float)
            assert isinstance(entry["min_seconds"], float)
            assert isinstance(entry["iqr_seconds"], float)
            assert entry["backend"] in ("native", "numpy")

    def test_json_is_gateable_against_itself(self, tmp_path, capsys):
        """Round-trip through check_regression: a run gated against its
        own document passes with every row present."""
        import subprocess
        import sys
        from pathlib import Path

        target = tmp_path / "kernels.json"
        assert (
            main(["bench", "kernels", "--preset", "mgpu-maxwell",
                  "--tiles", "2", "--repeat", "2", "--json", str(target)])
            == 0
        )
        capsys.readouterr()
        gate = (
            Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "check_regression.py"
        )
        proc = subprocess.run(
            [sys.executable, str(gate), str(target), str(target),
             "--require", "kernel_merge_pairs,kernel_tile_merge_counts,"
             "kernel_probe_tile_counts,kernel_sort_fused"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_input(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--input", "bogus"])


class TestVersionAndExitCodes:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "repro-mergesort" in out
        assert any(ch.isdigit() for ch in out)

    def test_validation_failure_exits_2(self, capsys):
        assert main(["simulate", "--preset", "nope", "--tiles", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown preset" in err

    def test_unreachable_service_exits_3(self, capsys):
        # Port 1 on loopback is never bound by the suite; the client's
        # transport failure is an internal (retryable) error, not a usage
        # error, and must be distinguishable by exit code.
        assert (
            main(["request", "healthz", "--url", "http://127.0.0.1:1",
                  "--timeout", "5"])
            == 3
        )
        err = capsys.readouterr().err
        assert err.startswith("internal error:")
        assert "unreachable" in err


class TestCachePruneCli:
    def test_prune_without_budget_is_usage_error(self, tmp_path, capsys):
        assert (
            main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
        )
        assert "--max-mb" in capsys.readouterr().err

    def test_prune_empty_cache(self, tmp_path, capsys):
        assert (
            main(["cache", "prune", "--cache-dir", str(tmp_path),
                  "--max-mb", "10"])
            == 0
        )
        out = capsys.readouterr().out
        assert "pruned 0 entries" in out

    def test_prune_evicts_entries(self, tmp_path, capsys):
        from repro.bench.cache import BenchCache, point_key
        from repro.bench.runner import SweepRunner
        from repro.gpu.device import QUADRO_M4000
        from repro.sort.config import SortConfig

        cfg = SortConfig(elements_per_thread=3, block_size=32, warp_size=32)
        runner = SweepRunner(
            cfg, QUADRO_M4000,
            exact_threshold=cfg.tile_size * 8, score_blocks=4, seed=0,
            cache=BenchCache(tmp_path),
        )
        for tiles in (2, 4):
            n = cfg.tile_size * tiles
            key = point_key(
                cfg, QUADRO_M4000, padding=0, input_name="worst-case",
                num_elements=n, score_blocks=4, seed=0,
                exact_threshold=cfg.tile_size * 8,
            )
            runner.cache.put_point(key, runner.run_point("worst-case", n))
        assert (
            main(["cache", "prune", "--cache-dir", str(tmp_path),
                  "--max-mb", "0"])
            == 0
        )
        out = capsys.readouterr().out
        assert "pruned 2 entries" in out
        assert runner.cache.stats().point_entries == 0


class TestProgressPrinter:
    @staticmethod
    def events(n=3):
        from repro.engine.tasks import ProgressEvent, sweep_items
        from repro.gpu.device import QUADRO_M4000
        from repro.sort.config import SortConfig

        cfg = SortConfig(elements_per_thread=3, block_size=32, warp_size=32)
        item = sweep_items(cfg, QUADRO_M4000, ["random"], [cfg.tile_size * 2])[0]
        return [
            ProgressEvent(
                done=i + 1, total=n, item=item, point=None, seconds=0.1,
                from_cache=False,
            )
            for i in range(n)
        ]

    def test_non_tty_emits_plain_flushed_lines(self):
        import io

        from repro.cli import _progress_printer

        class Stream(io.StringIO):
            def __init__(self):
                super().__init__()
                self.flushes = 0

            def flush(self):
                self.flushes += 1
                super().flush()

        stream = Stream()
        emit = _progress_printer(stream)
        for event in self.events():
            emit(event)
        out = stream.getvalue()
        assert "\x1b" not in out and "\r" not in out
        assert out.count("\n") == 3
        # One flush per event: piped consumers see progress immediately.
        assert stream.flushes == 3

    def test_tty_updates_in_place(self):
        import io

        from repro.cli import _progress_printer

        class FakeTty(io.StringIO):
            def isatty(self):
                return True

        stream = FakeTty()
        emit = _progress_printer(stream)
        for event in self.events():
            emit(event)
        out = stream.getvalue()
        # Intermediate events erase + overwrite; only the last newlines.
        assert out.count("\x1b[2K") == 3
        assert out.count("\r") == 2
        assert out.endswith("\n") and out.count("\n") == 1

    def test_broken_stream_is_tolerated(self):
        from repro.cli import _progress_printer

        class Broken:
            def write(self, text):
                raise OSError("broken pipe")

            def flush(self):
                raise OSError("broken pipe")

        emit = _progress_printer(Broken())
        for event in self.events(1):
            emit(event)  # must not raise


class TestEngineFlag:
    """``--engine`` picks a registered engine directly; ``--scoring``
    keeps working and the two resolve through the same registry."""

    def test_simulate_engine_inline_loop_matches_scoring_loop(self, capsys):
        argv = ["simulate", "--preset", "mgpu-maxwell", "--tiles", "2",
                "--input", "worst-case"]
        assert main(argv + ["--engine", "inline-loop"]) == 0
        by_engine = capsys.readouterr().out
        assert main(argv + ["--scoring", "loop"]) == 0
        by_scoring = capsys.readouterr().out
        assert "sorted correctly: True" in by_engine
        assert by_engine == by_scoring

    def test_simulate_engine_analytic(self, capsys):
        assert (
            main(["simulate", "--preset", "mgpu-maxwell", "--tiles", "2",
                  "--input", "worst-case", "--engine", "analytic"])
            == 0
        )
        assert "sorted correctly: True" in capsys.readouterr().out

    def test_simulate_engine_inline_fused_matches_scoring_fused(self, capsys):
        argv = ["simulate", "--preset", "mgpu-maxwell", "--tiles", "2",
                "--input", "worst-case"]
        assert main(argv + ["--engine", "inline-fused"]) == 0
        by_engine = capsys.readouterr().out
        assert main(argv + ["--scoring", "fused", "--no-memo"]) == 0
        by_scoring = capsys.readouterr().out
        assert "sorted correctly: True" in by_engine
        assert by_engine == by_scoring

    def test_simulate_unknown_engine_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "mgpu-maxwell", "--tiles", "2",
                  "--input", "worst-case", "--engine", "warp-drive"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_sweep_engine_inline_matches_default(self, capsys):
        argv = ["sweep", "--preset", "mgpu-maxwell",
                "--max-elements", "1000000", "--exact-threshold", "262144"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--engine", "inline"]) == 0
        explicit = capsys.readouterr().out
        assert default == explicit
