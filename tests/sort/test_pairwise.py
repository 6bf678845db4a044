"""Unit, integration, and property tests for the pairwise merge sort
simulator — correctness of the sort itself plus instrumentation sanity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ValidationError
from repro.inputs.generators import generate
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort


class TestSortCorrectness:
    def test_identity_on_sorted(self, tiny_config):
        n = tiny_config.tile_size * 2
        data = np.arange(n)
        result = PairwiseMergeSort(tiny_config).sort(data)
        assert np.array_equal(result.values, data)

    def test_random_permutation(self, small_config, rng):
        n = small_config.tile_size * 8
        data = rng.permutation(n)
        result = PairwiseMergeSort(small_config).sort(data)
        assert np.array_equal(result.values, np.arange(n))

    def test_duplicates(self, small_config, rng):
        n = small_config.tile_size * 4
        data = rng.integers(0, 7, size=n)
        result = PairwiseMergeSort(small_config).sort(data)
        assert np.array_equal(result.values, np.sort(data))

    def test_all_equal(self, tiny_config):
        n = tiny_config.tile_size * 2
        data = np.full(n, 42)
        result = PairwiseMergeSort(tiny_config).sort(data)
        assert np.array_equal(result.values, data)

    def test_reverse_sorted(self, large_e_config):
        n = large_e_config.tile_size * 4
        data = np.arange(n)[::-1]
        result = PairwiseMergeSort(large_e_config).sort(data)
        assert np.array_equal(result.values, np.arange(n))

    def test_negative_values(self, tiny_config, rng):
        n = tiny_config.tile_size * 2
        data = rng.integers(-1000, 1000, size=n)
        result = PairwiseMergeSort(tiny_config).sort(data)
        assert np.array_equal(result.values, np.sort(data))

    def test_single_tile_no_global_rounds(self, tiny_config, rng):
        data = rng.permutation(tiny_config.tile_size)
        result = PairwiseMergeSort(tiny_config).sort(data)
        assert np.array_equal(result.values, np.arange(tiny_config.tile_size))
        assert result.num_rounds == tiny_config.num_block_rounds

    def test_rejects_invalid_size(self, tiny_config):
        with pytest.raises(ConfigurationError):
            PairwiseMergeSort(tiny_config).sort(np.arange(100))

    @pytest.mark.parametrize("scoring", ["loop", "vectorized", "fused"])
    def test_rejects_nan_keys(self, scoring):
        """The register network's min/max comparators would copy one NaN
        across a thread's registers (15 NaNs out of 1 in), and the row
        sort of the fast paths would not: NaN keys are rejected."""
        from repro.sort.presets import MGPU_MAXWELL

        data = np.arange(MGPU_MAXWELL.tile_size * 2, dtype=np.float64)
        data[100] = np.nan
        with pytest.raises(ValidationError, match="NaN"):
            PairwiseMergeSort(MGPU_MAXWELL, scoring=scoring).sort(data)

    def test_float_keys_without_nan_sort(self, tiny_config, rng):
        data = rng.standard_normal(tiny_config.tile_size * 2)
        for scoring in ("loop", "vectorized"):
            result = PairwiseMergeSort(tiny_config, scoring=scoring).sort(data)
            assert np.array_equal(result.values, np.sort(data))

    def test_input_not_mutated(self, tiny_config, rng):
        data = rng.permutation(tiny_config.tile_size * 2)
        copy = data.copy()
        PairwiseMergeSort(tiny_config).sort(data)
        assert np.array_equal(data, copy)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_property_sorts_anything(self, data):
        cfg = SortConfig(elements_per_thread=3, block_size=4, warp_size=4)
        tiles = data.draw(st.sampled_from([1, 2, 4, 8]))
        n = cfg.tile_size * tiles
        values = np.array(
            data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
        )
        result = PairwiseMergeSort(cfg).sort(values)
        assert np.array_equal(result.values, np.sort(values))


class TestRoundStructure:
    def test_round_labels_and_counts(self, small_config, rng):
        n = small_config.tile_size * 4
        result = PairwiseMergeSort(small_config).sort(rng.permutation(n))
        kinds = [r.kind for r in result.rounds]
        assert kinds[0] == "registers"
        assert kinds.count("block") == small_config.num_block_rounds
        assert kinds.count("global") == 2

    def test_run_lengths_double(self, small_config, rng):
        n = small_config.tile_size * 2
        result = PairwiseMergeSort(small_config).sort(rng.permutation(n))
        merges = [r for r in result.rounds if r.kind != "registers"]
        lengths = [r.run_length for r in merges]
        assert lengths == [small_config.E * (1 << i) for i in range(len(merges))]


class TestInstrumentation:
    def test_register_staging_coprime_is_conflict_free(self, rng):
        """GCD(E, w) = 1 makes the E-strided register loads conflict free —
        the Dotsenko observation the paper cites."""
        cfg = SortConfig(elements_per_thread=3, block_size=8, warp_size=4)
        result = PairwiseMergeSort(cfg).sort(rng.permutation(cfg.tile_size))
        assert result.rounds[0].staging_report.total_replays == 0

    def test_register_staging_power_of_two_conflicts(self, rng):
        """E = w makes every register load a full-warp conflict."""
        cfg = SortConfig(elements_per_thread=4, block_size=8, warp_size=4)
        result = PairwiseMergeSort(cfg).sort(rng.permutation(cfg.tile_size))
        staging = result.rounds[0].staging_report
        assert staging.max_degree == 4

    def test_global_traffic_words(self, small_config, rng):
        n = small_config.tile_size * 4
        result = PairwiseMergeSort(small_config).sort(rng.permutation(n))
        traffic = result.total_global_traffic()
        # base (2N) + 2 global rounds x (2N + probes)
        assert traffic.words >= 6 * n

    def test_block_rounds_have_no_global_traffic(self, small_config, rng):
        n = small_config.tile_size * 2
        result = PairwiseMergeSort(small_config).sort(rng.permutation(n))
        for r in result.rounds:
            if r.kind == "block":
                assert r.global_traffic.transactions == 0

    def test_kernel_cost_aggregation(self, small_config, rng):
        n = small_config.tile_size * 4
        result = PairwiseMergeSort(small_config).sort(rng.permutation(n))
        cost = result.kernel_cost(32)
        assert cost.shared_cycles == round(result.total_shared_cycles())
        assert cost.kernel_launches == 1 + 2 * 2
        assert cost.warps_per_sm == 32

    def test_replays_per_element_positive_for_random(self, small_config, rng):
        n = small_config.tile_size * 4
        result = PairwiseMergeSort(small_config).sort(rng.permutation(n))
        assert result.replays_per_element() > 0


class TestSampledScoring:
    def test_sampling_estimates_exact(self, small_config, rng):
        """Sampled scoring must estimate full scoring within noise."""
        n = small_config.tile_size * 32
        data = rng.permutation(n)
        sorter = PairwiseMergeSort(small_config)
        exact = sorter.sort(data)
        sampled = sorter.sort(data, score_blocks=8)
        assert np.array_equal(exact.values, sampled.values)
        ratio = sampled.total_shared_cycles() / exact.total_shared_cycles()
        assert 0.9 < ratio < 1.1

    def test_sampling_exact_on_periodic_input(self, small_config):
        """The constructed input is block-periodic: a 2-block sample is
        exact for merge-stage cycles."""
        from repro.adversary.permutation import worst_case_permutation

        n = small_config.tile_size * 16
        data = worst_case_permutation(small_config, n)
        sorter = PairwiseMergeSort(small_config)
        exact = sorter.sort(data)
        sampled = sorter.sort(data, score_blocks=2)
        for r_exact, r_sampled in zip(exact.rounds, sampled.rounds):
            if r_exact.kind == "global":
                per_block_exact = (
                    r_exact.merge_report.total_transactions / r_exact.blocks_scored
                )
                per_block_sampled = (
                    r_sampled.merge_report.total_transactions
                    / r_sampled.blocks_scored
                )
                assert per_block_exact == per_block_sampled

    def test_invalid_score_blocks(self, small_config, rng):
        # Bad user input is a validation failure, not a simulator bug.
        with pytest.raises(ValidationError):
            PairwiseMergeSort(small_config).sort(
                rng.permutation(small_config.tile_size * 2), score_blocks=0
            )

    def test_score_blocks_at_least_total_traces_everything(self, small_config, rng):
        result = PairwiseMergeSort(small_config).sort(
            rng.permutation(small_config.tile_size * 2), score_blocks=10_000
        )
        for r in result.rounds:
            assert r.blocks_scored == r.blocks_total


class TestChooseBlocksDrawOrder:
    """Pin down the RNG-consumption contract of block sampling.

    The parallel sweep runner replays sorts worker-side and relies on the
    sampled-block draws being a pure function of (seed, round sequence) —
    independent of the scoring implementation and of validation order.
    """

    def test_rng_untouched_when_tracing_everything(self, small_config, rng):
        from repro.sort.pairwise import _choose_blocks

        g = np.random.default_rng(3)
        before = g.bit_generator.state
        np.testing.assert_array_equal(_choose_blocks(4, None, g), np.arange(4))
        np.testing.assert_array_equal(_choose_blocks(4, 4, g), np.arange(4))
        np.testing.assert_array_equal(_choose_blocks(4, 99, g), np.arange(4))
        assert g.bit_generator.state == before

    def test_validation_precedes_shortcircuit(self):
        from repro.sort.pairwise import _choose_blocks

        # score_blocks=0 must fail even when the shortcircuit (0 >= total)
        # would otherwise return an empty selection without drawing.
        with pytest.raises(ValidationError):
            _choose_blocks(0, 0, np.random.default_rng(0))

    def test_sampling_draws_once_sorted(self):
        from repro.sort.pairwise import _choose_blocks

        g1 = np.random.default_rng(11)
        g2 = np.random.default_rng(11)
        picked = _choose_blocks(100, 8, g1)
        assert picked.tolist() == sorted(picked.tolist())
        assert len(set(picked.tolist())) == 8
        # Exactly the draws of one choice() call were consumed.
        expected = np.sort(g2.choice(100, size=8, replace=False))
        np.testing.assert_array_equal(picked, expected)
        assert g1.bit_generator.state == g2.bit_generator.state

    def test_both_scoring_paths_draw_identically(self, small_config, rng):
        import repro.sort.pairwise as pairwise_mod

        n = small_config.tile_size * 16
        data = rng.permutation(n)
        calls: dict[str, list] = {"vectorized": [], "loop": []}
        original = pairwise_mod._choose_blocks

        for mode in ("vectorized", "loop"):

            def recording(total, score_blocks, rng_, _mode=mode):
                picked = original(total, score_blocks, rng_)
                calls[_mode].append((total, score_blocks, picked.tolist()))
                return picked

            pairwise_mod._choose_blocks = recording
            try:
                PairwiseMergeSort(small_config, scoring=mode).sort(
                    data, score_blocks=4, seed=123
                )
            finally:
                pairwise_mod._choose_blocks = original

        assert calls["vectorized"] == calls["loop"]
        assert any(
            len(picked) < total for total, _, picked in calls["vectorized"]
        ), "expected at least one genuinely sampled round"


class TestAllGenerators:
    @pytest.mark.parametrize(
        "name",
        ["random", "sorted", "reverse", "few-unique", "sawtooth",
         "conflict-heavy", "worst-case"],
    )
    def test_sorts_every_generator(self, small_config, name):
        n = small_config.tile_size * 4
        data = generate(name, small_config, n, seed=7)
        result = PairwiseMergeSort(small_config).sort(data)
        assert np.array_equal(result.values, np.sort(data))
