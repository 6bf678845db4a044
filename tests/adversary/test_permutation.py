"""Tests for the full worst-case input permutation — including the key
end-to-end property: the simulated sort on the constructed input serializes
every constructible round to exactly the theorem's per-warp count."""

import numpy as np
import pytest

from repro.adversary.interleave import adversarial_rounds
from repro.adversary.permutation import worst_case_permutation
from repro.adversary.theory import aligned_elements
from repro.errors import ValidationError
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort


class TestPermutationBasics:
    def test_is_a_permutation(self, small_config):
        n = small_config.tile_size * 4
        perm = worst_case_permutation(small_config, n)
        assert sorted(perm.tolist()) == list(range(n))

    def test_deterministic(self, small_config):
        n = small_config.tile_size * 2
        a = worst_case_permutation(small_config, n)
        b = worst_case_permutation(small_config, n)
        assert np.array_equal(a, b)

    def test_custom_values(self, small_config):
        n = small_config.tile_size * 2
        values = np.arange(n) * 10 + 3
        perm = worst_case_permutation(small_config, n, values=values)
        assert sorted(perm.tolist()) == values.tolist()

    def test_rejects_non_increasing_values(self, small_config):
        n = small_config.tile_size * 2
        with pytest.raises(ValidationError):
            worst_case_permutation(small_config, n, values=np.zeros(n, dtype=int))

    def test_rejects_wrong_value_count(self, small_config):
        with pytest.raises(ValidationError):
            worst_case_permutation(
                small_config, small_config.tile_size * 2, values=np.arange(3)
            )

    def test_not_sorted_itself(self, small_config):
        """The adversarial input must differ from sorted order (E odd)."""
        n = small_config.tile_size * 2
        perm = worst_case_permutation(small_config, n)
        assert not np.array_equal(perm, np.arange(n))


class TestEndToEndSerialization:
    """The central claim of the reproduction, verified per round."""

    @pytest.mark.parametrize(
        "w,e,b",
        [(4, 3, 8), (8, 3, 16), (8, 5, 16), (8, 7, 16), (16, 7, 32),
         (16, 9, 32), (16, 13, 64), (32, 15, 64), (32, 17, 64)],
    )
    def test_constructible_rounds_hit_theorem_count(self, w, e, b):
        cfg = SortConfig(elements_per_thread=e, block_size=b, warp_size=w)
        n = cfg.tile_size * 4
        perm = worst_case_permutation(cfg, n)
        result = PairwiseMergeSort(cfg).sort(perm)
        assert np.array_equal(result.values, np.arange(n))

        warps_per_round = n // (w * e)
        predicted = aligned_elements(w, e)
        targeted = set(adversarial_rounds(cfg, n))
        for r in result.rounds:
            if r.kind == "registers" or r.run_length not in targeted:
                continue
            per_warp = r.merge_report.total_transactions / warps_per_round
            if e < w / 2:
                # Small E: aligned accesses fully determine the cost — the
                # E fillers spread over w−E ≥ E untargeted banks can never
                # exceed the E-way aligned pile-up.
                assert per_warp == pytest.approx(predicted), (
                    f"round {r.label}: {per_warp} != {predicted}"
                )
            else:
                # Large E: the aligned total is a lower bound (filler
                # accesses stack extra serialization on top); E² bounds it
                # above.
                assert predicted <= per_warp <= e * e, (
                    f"round {r.label}: {per_warp} outside [{predicted}, {e*e}]"
                )

    def test_sorts_correctly_at_scale(self, thrust_config):
        n = thrust_config.tile_size * 8
        perm = worst_case_permutation(thrust_config, n)
        result = PairwiseMergeSort(thrust_config).sort(perm, score_blocks=2)
        assert np.array_equal(result.values, np.arange(n))

    def test_worse_than_random(self, rng):
        """The constructed input must beat random inputs on serialized
        shared cycles — the paper's whole point. (At tiny E the margin is
        thin — E² barely above the random balls-in-bins max-load times E —
        so this uses a config with meaningful E, like the real presets.)"""
        cfg = SortConfig(elements_per_thread=7, block_size=32, warp_size=16)
        n = cfg.tile_size * 16
        sorter = PairwiseMergeSort(cfg)
        worst = sorter.sort(worst_case_permutation(cfg, n))
        random = sorter.sort(rng.permutation(n))
        assert worst.total_shared_cycles() > random.total_shared_cycles()

        def global_merge_cycles(result):
            return sum(
                r.merge_report.total_transactions
                for r in result.rounds
                if r.kind == "global"
            )

        assert global_merge_cycles(worst) > 1.5 * global_merge_cycles(random)

    def test_effective_parallelism_collapse(self):
        """Section III-C: parallel time per warp merge grows from Θ(E) to
        the aligned count — parallelism w -> ~⌈w/E⌉."""
        cfg = SortConfig(elements_per_thread=15, block_size=64, warp_size=32)
        n = cfg.tile_size * 4
        result = PairwiseMergeSort(cfg).sort(worst_case_permutation(cfg, n))
        glob = [r for r in result.rounds if r.kind == "global"]
        warps = n // (32 * 15)
        for r in glob:
            per_warp_cycles = r.merge_report.total_transactions / warps
            assert per_warp_cycles == 225  # E² vs the conflict-free 15


class TestUnmergeOffTargetValidation:
    """A mistyped ``off_target`` must fail loudly, not silently fall back
    to the benign sorted interleaving (which would quietly produce a
    non-adversarial 'adversarial' input)."""

    def _args(self, config):
        from repro.adversary.assignment import construct_warp_assignment

        n = config.tile_size * 2
        assignment = construct_warp_assignment(config.w, config.E)
        return np.arange(n, dtype=np.int64), assignment

    @pytest.mark.parametrize("off_target", ["sorted", "random"])
    def test_valid_modes_accepted(self, small_config, off_target):
        from repro.adversary.permutation import unmerge_through_rounds

        values, assignment = self._args(small_config)
        out = unmerge_through_rounds(
            small_config,
            values,
            assignment,
            target_runs=set(),
            off_target=off_target,
        )
        assert sorted(out.tolist()) == values.tolist()

    @pytest.mark.parametrize("off_target", ["sortd", "rand", "", "SORTED"])
    def test_typos_rejected(self, small_config, off_target):
        from repro.adversary.permutation import unmerge_through_rounds

        values, assignment = self._args(small_config)
        with pytest.raises(ValidationError, match=repr(off_target)):
            unmerge_through_rounds(
                small_config, values, assignment, off_target=off_target
            )


class TestIdentityPath:
    """With keys ``arange(N)`` the cascade's index is the input: default
    constructions return it directly instead of gathering through it,
    byte for byte what the gather gives."""

    @pytest.mark.parametrize("tiles", [1, 2, 8])
    def test_worst_case_equals_the_gather(self, tiles):
        from repro.adversary.assignment import construct_warp_assignment
        from repro.adversary.family import random_family_member
        from repro.adversary.permutation import unmerge_through_rounds

        cfg = SortConfig(elements_per_thread=7, block_size=32, warp_size=16)
        n = cfg.tile_size * tiles
        base = construct_warp_assignment(cfg.w, cfg.E)
        for assignment in (base, random_family_member(base, seed=3)):
            direct = worst_case_permutation(cfg, n, assignment=assignment)
            gathered = unmerge_through_rounds(
                cfg, np.arange(n, dtype=np.int64), assignment
            )
            assert direct.dtype == gathered.dtype == np.int64
            assert direct.tobytes() == gathered.tobytes()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_conflict_heavy_equals_the_gather(self, seed):
        from repro.adversary.assignment import construct_warp_assignment
        from repro.adversary.permutation import unmerge_through_rounds
        from repro.inputs.generators import conflict_heavy_input

        cfg = SortConfig(elements_per_thread=7, block_size=32, warp_size=16)
        n = cfg.tile_size * 8
        direct = conflict_heavy_input(cfg, n, seed=seed)
        gathered = unmerge_through_rounds(
            cfg,
            np.arange(n, dtype=np.int64),
            construct_warp_assignment(cfg.w, cfg.E),
            target_runs={n // 2, n // 4},
            off_target="random",
            seed=seed,
        )
        assert direct.dtype == gathered.dtype == np.int64
        assert direct.tobytes() == gathered.tobytes()

    def test_index_is_a_permutation(self):
        from repro.adversary.assignment import construct_warp_assignment
        from repro.adversary.permutation import unmerge_index

        cfg = SortConfig(elements_per_thread=3, block_size=8, warp_size=4)
        n = cfg.tile_size * 4
        index = unmerge_index(cfg, n, construct_warp_assignment(cfg.w, cfg.E))
        assert index.dtype == np.intp
        assert np.array_equal(np.sort(index), np.arange(n))
