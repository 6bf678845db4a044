"""Property-based fuzzing of the whole pipeline.

Random configurations × random inputs × random knobs, checking the
invariants that must hold for *any* combination: sorts sort, counters obey
conservation laws, sampling estimates exact scoring, constructions hit
their formulas.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.assignment import construct_warp_assignment
from repro.adversary.theory import aligned_elements
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort


@st.composite
def configs(draw):
    w = draw(st.sampled_from([4, 8, 16]))
    e = draw(st.integers(min_value=1, max_value=9))
    b_factor = draw(st.sampled_from([1, 2, 4]))
    return SortConfig(elements_per_thread=e, block_size=w * b_factor,
                      warp_size=w)


@st.composite
def config_and_input(draw):
    cfg = draw(configs())
    tiles = draw(st.sampled_from([1, 2, 4, 8]))
    n = cfg.tile_size * tiles
    kind = draw(st.sampled_from(["permutation", "duplicates", "constant",
                                 "reverse"]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    if kind == "permutation":
        data = rng.permutation(n)
    elif kind == "duplicates":
        data = rng.integers(0, max(2, n // 8), size=n)
    elif kind == "constant":
        data = np.full(n, 7)
    else:
        data = np.arange(n)[::-1].copy()
    return cfg, data


class TestSortInvariants:
    @settings(max_examples=60, deadline=None)
    @given(config_and_input(), st.sampled_from([None, 1, 3]))
    def test_sorts_and_counts_consistently(self, setup, score_blocks):
        cfg, data = setup
        result = PairwiseMergeSort(cfg).sort(data, score_blocks=score_blocks)
        # 1. It sorts.
        assert np.array_equal(result.values, np.sort(data))
        # 2. Round structure: one register phase + log(N/E) merge rounds.
        n = data.size
        assert result.num_rounds == int(math.log2(n // cfg.E))
        # 3. Conservation: every merge round traces E accesses per thread
        #    for the scored blocks.
        for r in result.rounds:
            if r.kind == "registers":
                continue
            scored_threads = r.blocks_scored * cfg.b
            if r.kind == "block":
                scored_threads = r.blocks_scored * cfg.b
            assert r.merge_report.num_accesses == scored_threads * cfg.E
        # 4. Cost sanity: serialized cycles within [steps, accesses].
        for r in result.rounds:
            rep = r.merge_report
            assert rep.conflict_free_cycles <= rep.total_transactions
            assert rep.total_transactions <= rep.num_requests

    @settings(max_examples=40, deadline=None)
    @given(config_and_input())
    def test_padding_preserves_sort_and_bounds(self, setup):
        cfg, data = setup
        stock = PairwiseMergeSort(cfg).sort(data)
        padded = PairwiseMergeSort(cfg, mitigation="padding:1").sort(data)
        assert np.array_equal(padded.values, stock.values)
        # Padding is injective: access counts unchanged.
        for a, b in zip(stock.rounds, padded.rounds):
            assert a.merge_report.num_accesses == b.merge_report.num_accesses


class TestConstructionInvariants:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([4, 8, 16, 32, 64]), st.data())
    def test_every_coprime_construction(self, w, data):
        e = data.draw(st.integers(min_value=1, max_value=w - 1))
        if math.gcd(w, e) != 1 or e == w // 2:
            return
        wa = construct_warp_assignment(w, e)
        # Formula equality, conservation, and mirror symmetry.
        assert wa.aligned_count() == aligned_elements(w, e)
        assert wa.num_a + wa.num_b == w * e
        assert wa.num_a == (e + 1) // 2 * w
        assert wa.mirrored().aligned_count() == wa.aligned_count()
        # The interleaving realizes the assignment.
        inter = wa.interleaving()
        assert int(inter.sum()) == wa.num_a

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_permutation_roundtrip(self, data):
        from repro.adversary.permutation import worst_case_permutation

        cfg = SortConfig(
            elements_per_thread=data.draw(st.sampled_from([3, 5, 7])),
            block_size=16,
            warp_size=8,
        )
        tiles = data.draw(st.sampled_from([2, 4, 8]))
        n = cfg.tile_size * tiles
        perm = worst_case_permutation(cfg, n)
        assert np.array_equal(np.sort(perm), np.arange(n))
        result = PairwiseMergeSort(cfg).sort(perm)
        assert np.array_equal(result.values, np.arange(n))
