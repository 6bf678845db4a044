"""Tests for the input self-verification routine."""

import numpy as np
import pytest

from repro.adversary.permutation import worst_case_permutation
from repro.adversary.verify import verify_worst_case
from repro.sort.config import SortConfig


@pytest.fixture
def cfg():
    return SortConfig(elements_per_thread=7, block_size=32, warp_size=16)


class TestVerifyWorstCase:
    def test_constructed_input_passes(self, cfg):
        n = cfg.tile_size * 8
        report = verify_worst_case(cfg, worst_case_permutation(cfg, n))
        assert report.ok
        assert report.sorted_correctly
        assert report.targeted_rounds
        assert "OK" in report.summary()

    def test_random_input_fails(self, cfg, rng):
        n = cfg.tile_size * 8
        report = verify_worst_case(cfg, rng.permutation(n))
        assert report.sorted_correctly
        assert not report.ok
        assert "FAILED" in report.summary()

    def test_sorted_input_fails(self, cfg):
        n = cfg.tile_size * 4
        assert not verify_worst_case(cfg, np.arange(n)).ok

    def test_wrong_parameters_fail(self, cfg):
        """An input constructed for other parameters misses the bound."""
        other = SortConfig(elements_per_thread=13, block_size=32, warp_size=16)
        # Sizes must agree: lcm of tiles... use other's own valid size that
        # is also valid for cfg: tile(cfg)=224, tile(other)=416 — pick a
        # common multiple that is tile × 2^k for cfg: 224·13=2912? Not a
        # power-of-two multiple. Instead verify cfg's adversary against
        # `other`'s sort where sizes line up is impossible — so check the
        # relaxed variant instead: a heavily relaxed assignment misses.
        from repro.adversary.assignment import construct_warp_assignment
        from repro.adversary.family import relaxed_assignment

        n = cfg.tile_size * 4
        wa = relaxed_assignment(
            construct_warp_assignment(cfg.w, cfg.E), 1.0, seed=0
        )
        perm = worst_case_permutation(cfg, n, assignment=wa)
        assert not verify_worst_case(cfg, perm).ok

    def test_per_round_details(self, cfg):
        n = cfg.tile_size * 4
        report = verify_worst_case(cfg, worst_case_permutation(cfg, n))
        for verdict in report.targeted_rounds:
            assert verdict.per_warp_cycles >= verdict.predicted
        untargeted = [r for r in report.rounds if not r.targeted]
        assert all(r.ok for r in untargeted)  # no claims on narrow rounds

    def test_small_e_rounds_exact(self):
        cfg = SortConfig(elements_per_thread=3, block_size=8, warp_size=8)
        n = cfg.tile_size * 4
        report = verify_worst_case(cfg, worst_case_permutation(cfg, n))
        for verdict in report.targeted_rounds:
            assert verdict.per_warp_cycles == pytest.approx(verdict.predicted)


class TestVerifyFamily:
    def test_all_members_pass(self):
        from repro.adversary.verify import verify_family

        cfg = SortConfig(elements_per_thread=3, block_size=8, warp_size=4)
        reports = verify_family(cfg, cfg.tile_size * 4, 3, seed=0)
        assert len(reports) == 3
        assert all(r.ok for r in reports)

    def test_member_count_validated(self):
        from repro.adversary.verify import verify_family
        from repro.errors import ValidationError

        cfg = SortConfig(elements_per_thread=3, block_size=8, warp_size=4)
        with pytest.raises(ValidationError):
            verify_family(cfg, cfg.tile_size * 2, 0)


class TestMergeOnlyVerification:
    """Verification sorts merge-only: the theorems bound the merge stage,
    so the partition-stage (β₁) probes are never counted."""

    PRESETS = ("thrust-maxwell", "mgpu-maxwell", "thrust-cc60", "mgpu-cc60")

    @staticmethod
    def _inputs(cfg, n):
        from repro.adversary.assignment import construct_warp_assignment
        from repro.adversary.family import random_family_member

        base = construct_warp_assignment(cfg.w, cfg.E)
        yield worst_case_permutation(cfg, n)
        for seed in (1, 2):
            member = random_family_member(base, seed=seed)
            yield worst_case_permutation(cfg, n, assignment=member)

    @pytest.mark.parametrize("name", PRESETS)
    @pytest.mark.parametrize("tiles", [1, 8, 32])
    @pytest.mark.parametrize("score_blocks", [None, 4])
    def test_reports_equal_the_full_sorts(
        self, monkeypatch, name, tiles, score_blocks
    ):
        from repro.sort.pairwise import PairwiseMergeSort
        from repro.sort.presets import preset

        cfg = preset(name)
        values = list(self._inputs(cfg, cfg.tile_size * tiles))
        merge_only = [
            verify_worst_case(cfg, v, score_blocks=score_blocks)
            for v in values
        ]
        full_sort = PairwiseMergeSort.sort

        def always_full(self, data, *, partitions=True, **kwargs):
            return full_sort(self, data, **kwargs)

        monkeypatch.setattr(PairwiseMergeSort, "sort", always_full)
        full = [
            verify_worst_case(cfg, v, score_blocks=score_blocks)
            for v in values
        ]
        assert merge_only == full
        assert all(report.ok for report in full)

    def test_never_counts_probes(self, monkeypatch, cfg):
        import repro.mergepath.partition as partition_mod
        import repro.sort.pairwise as pairwise_mod
        from repro.adversary.verify import verify_family

        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        original = partition_mod.probe_tile_counts
        monkeypatch.setattr(pairwise_mod, "probe_tile_counts", spy)
        monkeypatch.setattr(partition_mod, "probe_tile_counts", spy)
        n = cfg.tile_size * 8
        perm = worst_case_permutation(cfg, n)
        for score_blocks in (None, 4):
            assert verify_worst_case(cfg, perm, score_blocks=score_blocks).ok
        assert all(r.ok for r in verify_family(cfg, n, 2))
        assert not calls
        # The spy sees the probes of a full sort.
        pairwise_mod.PairwiseMergeSort(cfg).sort(perm, score_blocks=4)
        assert calls
