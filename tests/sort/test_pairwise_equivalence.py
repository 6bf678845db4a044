"""Structural loop-vs-vectorized checks the engine suite does not cover.

The full equivalence *matrices* (every scoring path × every input family
× every ``E`` regime × padding × sampling) moved to
``tests/engine/test_engine_equivalence.py``, which runs them through
every registered execution engine against the loop oracle. What stays
here are the structure-sensitive cases: round-kind composition (no
global rounds for a single tile, exactly five for 32), the sampled-block
RNG draw alignment at several sample counts, and the aggregate
kernel-cost accessors — each asserted loop-vs-vectorized directly on the
sorter, where the structure is visible.

The shared config/input matrix and comparators live in
``tests/engine/comparison.py``.
"""

import pytest

from repro.inputs.generators import generate
from repro.sort.pairwise import PairwiseMergeSort
from tests.engine.comparison import (  # noqa: F401  (re-exported for callers)
    CONFIGS,
    INPUTS,
    assert_reports_identical,
    assert_results_identical,
)


def run_both(config, data, *, score_blocks=None, seed=0, mitigation="none"):
    rv = PairwiseMergeSort(
        config, scoring="vectorized", mitigation=mitigation
    ).sort(data, score_blocks=score_blocks, seed=seed)
    rl = PairwiseMergeSort(config, scoring="loop", mitigation=mitigation).sort(
        data, score_blocks=score_blocks, seed=seed
    )
    return rv, rl


class TestRoundStructure:
    def test_single_tile_no_global_rounds(self):
        cfg = CONFIGS["tiny"]
        data = generate("random", cfg, cfg.tile_size, seed=1)
        rv, rl = run_both(cfg, data)
        assert all(r.kind != "global" for r in rv.rounds)
        assert_results_identical(rv, rl)

    def test_many_global_rounds(self):
        cfg = CONFIGS["small-e"]
        data = generate("random", cfg, cfg.tile_size * 32, seed=5)
        rv, rl = run_both(cfg, data)
        assert sum(r.kind == "global" for r in rv.rounds) == 5
        assert_results_identical(rv, rl)

    def test_conflict_heavy_with_padding(self):
        """conflict-heavy is not an analytic family, so the engine suite's
        padding rows never reach it — pin it here."""
        cfg = CONFIGS["small-e"]
        data = generate("conflict-heavy", cfg, cfg.tile_size * 4, seed=9)
        assert_results_identical(*run_both(cfg, data, mitigation="padding:1"))


class TestSampledScoringEquivalence:
    @pytest.mark.parametrize("score_blocks", [1, 2, 3])
    def test_sampled_rounds_share_rng_draws(self, score_blocks):
        """Sampling draws blocks from a seeded generator; the vectorized
        path must consume it identically, so the sampled results (not just
        the expected values) match bit for bit."""
        cfg = CONFIGS["small-e"]
        data = generate("random", cfg, cfg.tile_size * 16, seed=3)
        assert_results_identical(
            *run_both(cfg, data, score_blocks=score_blocks, seed=777)
        )

    def test_sampled_large_e(self):
        cfg = CONFIGS["large-e"]
        data = generate("reverse", cfg, cfg.tile_size * 16, seed=0)
        assert_results_identical(*run_both(cfg, data, score_blocks=2, seed=1))

    def test_sampled_with_padding(self):
        cfg = CONFIGS["pow2-e"]
        data = generate("sawtooth", cfg, cfg.tile_size * 8, seed=0)
        assert_results_identical(
            *run_both(cfg, data, score_blocks=2, seed=55, mitigation="padding:1")
        )


class TestKernelCostEquivalence:
    def test_aggregate_cost_identical(self):
        """The timing-model inputs derived from both paths must agree."""
        cfg = CONFIGS["small-e"]
        data = generate("worst-case", cfg, cfg.tile_size * 8, seed=0)
        rv, rl = run_both(cfg, data)
        assert rv.kernel_cost(8) == rl.kernel_cost(8)
        assert rv.replays_per_element() == rl.replays_per_element()
        assert rv.total_shared_cycles() == rl.total_shared_cycles()
