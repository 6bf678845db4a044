"""Tests for the sweep runner — most importantly, that the synthesized
large-N path agrees with exact simulation where both are available."""

import pytest

from repro.bench.runner import CalibratedRates, SweepRunner
from repro.errors import ValidationError
from repro.gpu.device import QUADRO_M4000
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort
from repro.inputs.generators import generate


def small_runner(**kwargs):
    cfg = SortConfig(elements_per_thread=3, block_size=32, warp_size=32)
    defaults = dict(exact_threshold=cfg.tile_size * 32, score_blocks=4, seed=0)
    defaults.update(kwargs)
    return SweepRunner(cfg, QUADRO_M4000, **defaults)


class TestExactPath:
    def test_point_fields(self):
        runner = small_runner()
        n = runner.config.tile_size * 4
        p = runner.run_point("random", n)
        assert p.num_elements == n
        assert p.milliseconds > 0
        assert p.throughput_meps == pytest.approx(n / p.milliseconds / 1e3)

    def test_warp_mismatch_rejected(self):
        cfg = SortConfig(elements_per_thread=3, block_size=32, warp_size=16)
        with pytest.raises(ValidationError):
            SweepRunner(cfg, QUADRO_M4000)


class TestSynthesizedPath:
    @pytest.mark.parametrize("input_name", ["random", "worst-case", "sorted"])
    def test_matches_exact_at_overlap_size(self, input_name):
        """Synthesize a size we can also simulate exactly; the two cost
        estimates must agree closely (exactly, for periodic inputs)."""
        runner_exact = small_runner()
        cfg = runner_exact.config
        n = cfg.tile_size * 32  # == exact threshold
        exact = runner_exact.run_point(input_name, n)

        runner_synth = small_runner(exact_threshold=cfg.tile_size * 8)
        synth = runner_synth.run_point(input_name, n)

        assert synth.milliseconds == pytest.approx(exact.milliseconds, rel=0.06)
        assert synth.replays_per_element == pytest.approx(
            exact.replays_per_element, rel=0.06
        )
        assert synth.global_transactions == exact.global_transactions

    def test_monotone_in_n(self):
        runner = small_runner(exact_threshold=small_runner().config.tile_size * 4)
        sizes = runner.config.valid_sizes(10**7)[-4:]
        points = runner.sweep("worst-case", sizes)
        ms = [p.milliseconds for p in points]
        assert ms == sorted(ms)
        # conflicts/element grow ~ logarithmically: increasing, concave-ish.
        cpe = [p.replays_per_element for p in points]
        assert cpe == sorted(cpe)

    def test_calibration_cached(self):
        runner = small_runner(exact_threshold=small_runner().config.tile_size * 4)
        n = runner.config.tile_size * 64
        runner.run_point("random", n)
        assert "random" in runner._calibrations
        cal = runner._calibrations["random"]
        runner.run_point("random", n * 2)
        assert runner._calibrations["random"] is cal


class TestComputeTermContinuity:
    def test_kernel_cost_agrees_across_paths(self):
        """Regression: the synthesized base compute term was 3n/w instead
        of the measured register + block-round cost, so
        compute_warp_instructions (and simulated ms) jumped at
        exact_threshold. Exact and synthesized KernelCost must agree at a
        size where both paths are available."""
        runner = small_runner(exact_threshold=small_runner().config.tile_size * 8)
        cfg = runner.config
        n = cfg.tile_size * 32
        rates = runner._calibrate("worst-case")
        synth_cost, _ = runner._synthesize_cost(n, rates)

        data = generate("worst-case", cfg, n, seed=0)
        result = PairwiseMergeSort(cfg).sort(data, score_blocks=4, seed=0)
        exact_cost = result.kernel_cost(runner.warps_per_sm)

        assert (
            synth_cost.compute_warp_instructions
            == exact_cost.compute_warp_instructions
        )
        assert synth_cost.global_transactions == exact_cost.global_transactions
        assert synth_cost.global_words == exact_cost.global_words
        assert synth_cost.kernel_launches == exact_cost.kernel_launches

    def test_no_discontinuity_at_threshold(self):
        """Per-element compute grows with the round count, so it must not
        drop when crossing from the exact to the synthesized path (the old
        3n/w base term made it fall discontinuously)."""
        runner = small_runner(exact_threshold=small_runner().config.tile_size * 8)
        cfg = runner.config
        n_exact = cfg.tile_size * 8

        result = PairwiseMergeSort(cfg).sort(
            generate("worst-case", cfg, n_exact, seed=0), score_blocks=4, seed=0
        )
        exact_per_element = (
            result.kernel_cost(runner.warps_per_sm).compute_warp_instructions
            / n_exact
        )

        rates = runner._calibrate("worst-case")
        per_element = [exact_per_element]
        for n in (n_exact * 2, n_exact * 4, n_exact * 8):
            cost, _ = runner._synthesize_cost(n, rates)
            per_element.append(cost.compute_warp_instructions / n)
        assert per_element == sorted(per_element)


class TestCalibratedRates:
    def test_requires_global_round(self):
        cfg = SortConfig(elements_per_thread=3, block_size=32, warp_size=32)
        data = generate("random", cfg, cfg.tile_size, seed=0)
        result = PairwiseMergeSort(cfg).sort(data)
        with pytest.raises(ValidationError):
            CalibratedRates.from_result(result)

    def test_rates_positive(self):
        cfg = SortConfig(elements_per_thread=3, block_size=32, warp_size=32)
        data = generate("random", cfg, cfg.tile_size * 8, seed=0)
        result = PairwiseMergeSort(cfg).sort(data)
        rates = CalibratedRates.from_result(result)
        assert rates.base_shared_cycles > 0
        assert rates.global_shared_cycles > 0


class TestCalibrationSharing:
    """At the calibration size one instrumented sort serves both the exact
    point and the calibration, whichever is asked for first."""

    THRESHOLD_TILES = 8

    def runner(self, **kwargs):
        return small_runner(
            exact_threshold=small_runner().config.tile_size * self.THRESHOLD_TILES,
            **kwargs,
        )

    @staticmethod
    def record_sorts(monkeypatch, runner):
        sizes = []
        original = runner._instrumented_sort

        def recording(input_name, n):
            sizes.append((input_name, n))
            return original(input_name, n)

        monkeypatch.setattr(runner, "_instrumented_sort", recording)
        return sizes

    @pytest.mark.parametrize("input_name", ["random", "few-unique"])
    def test_ascending_sweep_sorts_calibration_size_once(
        self, monkeypatch, input_name
    ):
        runner = self.runner()
        tile = runner.config.tile_size
        sizes = [tile * t for t in (2, 4, 8, 16, 32)]
        sorts = self.record_sorts(monkeypatch, runner)
        points = runner.sweep(input_name, sizes)
        n_cal = tile * self.THRESHOLD_TILES
        assert sorts == [(input_name, tile * t) for t in (2, 4, 8)]
        assert runner._calibration_size() == n_cal
        assert points == [self.runner().run_point(input_name, n) for n in sizes]

    def test_synthesized_point_first(self, monkeypatch):
        runner = self.runner()
        tile = runner.config.tile_size
        n_cal = tile * self.THRESHOLD_TILES
        sorts = self.record_sorts(monkeypatch, runner)
        synthesized = runner.run_point("random", n_cal * 4)
        exact = runner.run_point("random", n_cal)
        assert sorts == [("random", n_cal)]
        assert synthesized == self.runner().run_point("random", n_cal * 4)
        assert exact == self.runner().run_point("random", n_cal)

    def test_each_input_calibrates_separately(self, monkeypatch):
        runner = self.runner()
        n_cal = runner.config.tile_size * self.THRESHOLD_TILES
        sorts = self.record_sorts(monkeypatch, runner)
        for name in ("random", "few-unique"):
            runner.run_point(name, n_cal)
            runner.run_point(name, n_cal * 2)
        assert sorts == [("random", n_cal), ("few-unique", n_cal)]

    def test_shared_point_equals_unshared_sort(self):
        """The kept point is exactly what a separate exact sort gives."""
        runner = self.runner()
        cfg = runner.config
        n_cal = cfg.tile_size * self.THRESHOLD_TILES
        runner.run_point("random", n_cal * 2)  # calibration first
        data = generate("random", cfg, n_cal, seed=0)
        result = PairwiseMergeSort(cfg).sort(data, score_blocks=4, seed=0)
        point = runner.run_point("random", n_cal)
        assert point.shared_cycles == result.kernel_cost(
            runner.warps_per_sm
        ).shared_cycles
        assert point.replays_per_element == result.replays_per_element()
        assert runner._calibrations["random"] == CalibratedRates.from_result(
            result
        )

    def test_analytic_routed_inputs_unchanged(self, monkeypatch):
        """Default runners send the constructed families to the closed
        form; sharing changes none of their points and simulates none."""
        import repro.bench.runner as runner_module

        runner = self.runner(score_blocks=None)
        tile = runner.config.tile_size
        sizes = [tile * t for t in (2, 8, 32)]
        expected = {
            name: [self.runner(score_blocks=None).run_point(name, n) for n in sizes]
            for name in ("worst-case", "sorted")
        }

        def no_simulation(*args, **kwargs):
            raise AssertionError("analytic-routed point was simulated")

        monkeypatch.setattr(runner_module, "PairwiseMergeSort", no_simulation)
        for name, points in expected.items():
            assert runner.sweep(name, sizes) == points
