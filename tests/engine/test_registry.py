"""The engine registry: names, factories, and the one auto-router."""

import pytest

from repro.engine import create_engine
from repro.engine.registry import (
    DEFAULT_SCORING,
    SCORING_MODES,
    SIMULATOR_SCORINGS,
    check_scoring,
    engine_for_scoring,
    engine_names,
    register_engine,
    resolve_scoring,
    scoring_for_engine,
)
from repro.errors import ValidationError
from tests.engine.comparison import CONFIGS

CFG = CONFIGS["small-e"]


class TestNames:
    def test_builtins_registered(self):
        assert set(engine_names()) == {
            "analytic",
            "inline",
            "inline-fused",
            "inline-loop",
            "inline-vectorized",
            "pool",
            "service",
        }

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValidationError, match="unknown engine"):
            create_engine("gpu")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValidationError, match="already registered"):
            register_engine("inline", lambda: None)

    def test_replace_allows_override(self):
        from repro.engine.inline import _inline_factory

        sentinel = object()
        register_engine("inline-loop", lambda: sentinel, replace=True)
        try:
            assert create_engine("inline-loop") is sentinel
        finally:
            register_engine(
                "inline-loop",
                _inline_factory("inline-loop", "loop"),
                replace=True,
            )

    def test_engine_name_attribute_matches_registry(self):
        for name in engine_names():
            if name in ("pool", "service"):
                continue  # pool spawns workers, service needs a daemon
            assert create_engine(name).name == name


class TestScoringValidation:
    def test_modes_are_superset_of_simulator_scorings(self):
        assert SCORING_MODES == ("auto",) + SIMULATOR_SCORINGS
        assert DEFAULT_SCORING in SCORING_MODES

    def test_check_scoring_accepts_modes(self):
        for mode in SCORING_MODES:
            assert check_scoring(mode) == mode

    def test_check_scoring_rejects_unknown(self):
        with pytest.raises(ValidationError, match="must be one of"):
            check_scoring("fast")

    def test_auto_needs_allow_auto(self):
        with pytest.raises(ValidationError):
            check_scoring("auto", allow_auto=False)

    def test_field_name_in_message(self):
        with pytest.raises(ValidationError, match="'scoring'"):
            check_scoring("fast", field="'scoring'")


class TestAutoRouting:
    def test_eligible_constructed_family_routes_analytic(self):
        assert resolve_scoring(
            "auto",
            config=CFG,
            input_name="worst-case",
            num_elements=CFG.tile_size * 8,
        ) == "analytic"

    def test_random_routes_fused(self):
        assert resolve_scoring(
            "auto",
            config=CFG,
            input_name="random",
            num_elements=CFG.tile_size * 8,
        ) == "fused"

    def test_explicit_modes_pass_through(self):
        for mode in SIMULATOR_SCORINGS:
            assert resolve_scoring(
                mode, config=CFG, input_name="random", num_elements=64
            ) == mode


class TestScoringEngineMapping:
    def test_round_trip(self):
        for scoring in SCORING_MODES:
            assert scoring_for_engine(engine_for_scoring(scoring)) == scoring

    def test_each_scoring_has_its_own_engine(self):
        engines = [engine_for_scoring(scoring) for scoring in SCORING_MODES]
        assert len(set(engines)) == len(SCORING_MODES)
        assert engine_for_scoring("vectorized") == "inline-vectorized"

    def test_pool_and_service_have_no_wire_equivalent(self):
        for name in ("pool", "service"):
            with pytest.raises(ValidationError, match="no wire equivalent"):
                scoring_for_engine(name)

    def test_unknown_engine_name_rejected(self):
        with pytest.raises(ValidationError):
            scoring_for_engine("gpu")
