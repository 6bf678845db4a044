"""The analytic engine's eligibility, serving, and theory-bound contracts.

The loop ≡ vectorized ≡ analytic bit-identity *matrix* moved to
``tests/engine/test_engine_equivalence.py``, which runs the closed form
(with padding and sampling) through the registered ``analytic`` engine
against the loop oracle alongside every other engine. What stays here is
what the engine suite does not exercise: the eligibility predicate and
model detection, the served round-trip through the serialization layer,
and the theory module's per-round cycle bound.
"""

import numpy as np
import pytest

from repro.adversary.theory import predicted_warp_transactions
from repro.analytic import (
    ANALYTIC_FAMILIES,
    AnalyticEngine,
    analytic_model,
    detect_model,
    is_analytic_eligible,
)
from repro.errors import ValidationError
from repro.inputs.generators import generate
from repro.sort.pairwise import PairwiseMergeSort
from repro.sort.serialize import result_from_obj, result_to_obj, results_identical
from tests.engine.comparison import CONFIGS

FAMILIES = sorted(ANALYTIC_FAMILIES)


class TestEligibility:
    def test_families_are_eligible(self):
        # 8 tiles: sawtooth needs its tooth period (n/8) to be a tile
        # multiple, the tightest of the four families' constraints.
        cfg = CONFIGS["small-e"]
        for name in FAMILIES:
            assert is_analytic_eligible(name, cfg, cfg.tile_size * 8), name

    def test_sawtooth_needs_tile_aligned_teeth(self):
        cfg = CONFIGS["small-e"]
        assert not is_analytic_eligible("sawtooth", cfg, cfg.tile_size * 4)

    @pytest.mark.parametrize("input_name", ["random", "few-unique", "conflict-heavy"])
    def test_unstructured_inputs_are_not(self, input_name):
        cfg = CONFIGS["small-e"]
        assert not is_analytic_eligible(input_name, cfg, cfg.tile_size * 4)

    def test_analytic_scoring_rejects_unrecognized_input(self):
        cfg = CONFIGS["small-e"]
        data = generate("random", cfg, cfg.tile_size * 4, seed=0)
        sorter = PairwiseMergeSort(cfg, scoring="analytic")
        with pytest.raises(ValidationError):
            sorter.sort(data)

    @pytest.mark.parametrize("input_name", FAMILIES)
    def test_detect_model_recognizes_generated_families(self, input_name):
        cfg = CONFIGS["pow2-e"]
        n = cfg.tile_size * 8
        data = generate(input_name, cfg, n, seed=0)
        model = detect_model(data, cfg)
        assert model.num_elements == n
        np.testing.assert_array_equal(
            model.output_values(), np.sort(data, kind="stable")
        )

    def test_reverse_requires_strict_descent(self):
        """A non-strict descending run breaks the all-B-first mask (stable
        merge takes ties from A), so it must fall through — here to the
        sorted model via np.sort equality failing → ValidationError."""
        cfg = CONFIGS["small-e"]
        data = np.arange(cfg.tile_size * 2, dtype=np.int64)[::-1].copy()
        data[1] = data[0]  # introduce one tie at the top
        with pytest.raises(ValidationError):
            detect_model(data, cfg)


class TestServedRoundTrip:
    """A result served over the wire must decode bit-identical to the one
    the engine produced directly (``results_identical`` is the service
    suite's comparator, so use it here verbatim)."""

    @pytest.mark.parametrize("input_name", FAMILIES)
    def test_serialize_round_trip(self, input_name):
        cfg = CONFIGS["small-e"]
        direct = PairwiseMergeSort(cfg, scoring="analytic").sort(
            generate(input_name, cfg, cfg.tile_size * 8, seed=42)
        )
        served = result_from_obj(result_to_obj(direct))
        assert results_identical(direct, served)

    def test_engine_matches_sorter_entry_point(self):
        """``AnalyticEngine.sort_result`` on a prebuilt model is the same
        object graph the ``scoring="analytic"`` sorter produces from the
        raw array."""
        cfg = CONFIGS["large-e"]
        n = cfg.tile_size * 8
        model = analytic_model("sawtooth", cfg, n)
        from_engine = AnalyticEngine(cfg).sort_result(model)
        from_sorter = PairwiseMergeSort(cfg, scoring="analytic").sort(
            generate("sawtooth", cfg, n, seed=0)
        )
        assert results_identical(from_engine, from_sorter)

    def test_values_dropped_round_trip(self):
        cfg = CONFIGS["small-e"]
        model = analytic_model("worst-case", cfg, cfg.tile_size * 4)
        direct = AnalyticEngine(cfg).sort_result(model, include_values=False)
        assert direct.values.size == 0
        served = result_from_obj(result_to_obj(direct, include_values=False))
        assert results_identical(direct, served, require_values=False)


class TestTheoryBound:
    """``predicted_warp_transactions`` is a *lower bound* on the serialized
    cycles of one warp merge pass (see its docstring contract). Assert it
    per constructible round against the simulator's measured cycles."""

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_bound_holds_per_constructible_round(self, config_name):
        cfg = CONFIGS[config_name]
        n = cfg.tile_size * 8
        result = PairwiseMergeSort(cfg).sort(generate("worst-case", cfg, n, seed=0))
        bound = predicted_warp_transactions(cfg.warp_size, cfg.elements_per_thread)
        warp_passes = n // (cfg.warp_size * cfg.elements_per_thread)
        checked = 0
        for stats in result.rounds:
            run = stats.run_length
            if stats.kind == "registers" or run % cfg.warp_size:
                continue
            if run < cfg.warp_size * cfg.elements_per_thread:
                continue
            measured = stats.merge_report.total_transactions * stats.scale
            assert measured >= warp_passes * bound, stats.label
            checked += 1
        assert checked >= 2  # the sweep sizes always reach constructible runs

    def test_small_e_bound_is_tight(self):
        """Small-``E`` regime (E < w/2): the bound is exact, E² per warp."""
        cfg = CONFIGS["small-e"]  # E=3 < w/2=4
        n = cfg.tile_size * 8
        result = PairwiseMergeSort(cfg).sort(generate("worst-case", cfg, n, seed=0))
        bound = predicted_warp_transactions(cfg.warp_size, cfg.elements_per_thread)
        warp_passes = n // (cfg.warp_size * cfg.elements_per_thread)
        for stats in result.rounds:
            run = stats.run_length
            if stats.kind == "registers" or run % cfg.warp_size:
                continue
            if run < cfg.warp_size * cfg.elements_per_thread:
                continue
            measured = stats.merge_report.total_transactions * stats.scale
            assert measured == warp_passes * bound, stats.label
