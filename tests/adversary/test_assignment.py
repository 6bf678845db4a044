"""Unit tests for the WarpAssignment abstraction."""

import numpy as np
import pytest

from repro.adversary.assignment import WarpAssignment, construct_warp_assignment
from repro.errors import ConstructionError, ValidationError


def make(w=4, e=3, tuples=None, a_first=None, s=0):
    tuples = tuples or ((3, 0), (0, 3), (2, 1), (1, 2))
    a_first = a_first or (True, True, True, True)
    return WarpAssignment(
        warp_size=w,
        elements_per_thread=e,
        tuples=tuple(tuples),
        a_first=tuple(a_first),
        target_bank=s,
    )


class TestValidation:
    def test_tuple_count(self):
        with pytest.raises(ValidationError):
            make(tuples=((3, 0),) * 3)

    def test_tuple_sums(self):
        with pytest.raises(ValidationError):
            make(tuples=((3, 0), (0, 3), (2, 2), (1, 2)))

    def test_negative_counts(self):
        with pytest.raises(ValidationError):
            make(tuples=((4, -1), (0, 3), (2, 1), (1, 2)))

    def test_target_bank_range(self):
        with pytest.raises(ValidationError):
            make(s=4)


class TestInterleaving:
    def test_counts(self):
        wa = make()
        inter = wa.interleaving()
        assert inter.size == 12
        assert int(inter.sum()) == wa.num_a == 6
        assert wa.num_b == 6

    def test_read_order_controls_chunk_order(self):
        wa = make(tuples=((2, 1),) * 4, a_first=(True, False, True, False))
        inter = wa.interleaving()
        assert inter[:3].tolist() == [True, True, False]   # A first
        assert inter[3:6].tolist() == [False, True, True]  # B first


class TestStepBanks:
    def test_scan_thread_walks_banks(self):
        wa = make(tuples=((3, 0), (0, 3), (3, 0), (0, 3)))
        banks = wa.step_banks()
        # Thread 0 scans A from offset 0: banks 0,1,2.
        assert banks[:, 0].tolist() == [0, 1, 2]
        # Thread 2 scans A from offset 3: banks 3,0,1 (mod 4).
        assert banks[:, 2].tolist() == [3, 0, 1]

    def test_b_first_ordering(self):
        wa = make(tuples=((1, 2), (2, 1), (3, 0), (0, 3)),
                  a_first=(False, True, True, True))
        banks = wa.step_banks()
        # Thread 0 reads B offsets 0,1 then A offset 0: banks 0,1 then 0.
        assert banks[:, 0].tolist() == [0, 1, 0]


class TestAlignedCount:
    def test_fully_aligned_warp(self):
        """Scan threads whose cumulative offsets are multiples of w are
        perfectly aligned: 2 aligned columns of A + 1 of B... with w=4, E=3:
        threads (3,0),(0,3),... thread 2 starts A at offset 3 (bank 3)."""
        wa = make(tuples=((3, 0), (0, 3), (3, 0), (0, 3)))
        # thread 0: banks 0,1,2 == steps 0,1,2 -> 3 aligned
        # thread 1: B offset 0: banks 0,1,2 -> 3 aligned
        # thread 2: A offset 3: banks 3,0,1 vs steps 0,1,2 -> 0
        # thread 3: B offset 3: banks 3,0,1 -> 0
        assert wa.aligned_count() == 6

    def test_best_aligned_searches_starts(self):
        wa = make(tuples=((3, 0), (0, 3), (3, 0), (0, 3)))
        count, start = wa.best_aligned_count()
        assert count >= wa.aligned_count(0)

    def test_aligned_count_override(self):
        wa = make(tuples=((3, 0), (0, 3), (3, 0), (0, 3)))
        assert wa.aligned_count(1) != wa.aligned_count(0) or True
        assert wa.aligned_count(0) == 6


class TestMirrored:
    def test_swaps_lists(self):
        wa = make(tuples=((3, 0), (0, 3), (2, 1), (1, 2)))
        m = wa.mirrored()
        assert m.tuples == ((0, 3), (3, 0), (1, 2), (2, 1))
        assert m.num_a == wa.num_b

    def test_preserves_alignment(self):
        """Mirroring is an exact symmetry: same aligned count."""
        wa = construct_warp_assignment(32, 15)
        assert wa.mirrored().aligned_count() == wa.aligned_count()
        wa = construct_warp_assignment(32, 17)
        assert wa.mirrored().aligned_count() == wa.aligned_count()

    def test_involution(self):
        wa = construct_warp_assignment(16, 7)
        assert wa.mirrored().mirrored() == wa


class TestBankMatrix:
    def test_shapes_and_ownership(self):
        wa = make(tuples=((3, 0), (0, 3), (3, 0), (0, 3)))
        a_owners, b_owners = wa.bank_matrix()
        assert a_owners.shape == (4, 2)
        # A list: thread 0 owns offsets 0-2, thread 2 owns 3-5.
        assert a_owners[0, 0] == 0 and a_owners[3, 0] == 2
        assert (b_owners >= -1).all()

    def test_figure3_left_first_column(self):
        """Paper Figure 3 (left): w=16, E=7 — banks 0..6 of the A list are
        owned by threads 0, 4, 8, 13; banks 0..6 of B by threads 1, 6, 11."""
        wa = construct_warp_assignment(16, 7)
        a_owners, b_owners = wa.bank_matrix()
        for bank in range(7):
            assert a_owners[bank, :4].tolist() == [0, 4, 8, 13]
            assert b_owners[bank, :3].tolist() == [1, 6, 11]


class TestConstructDispatch:
    def test_small_routes(self):
        wa = construct_warp_assignment(32, 15)
        assert wa.target_bank == 0

    def test_large_routes(self):
        wa = construct_warp_assignment(32, 17)
        assert wa.target_bank == 32 - 17

    def test_power_of_two_routes(self):
        wa = construct_warp_assignment(32, 8)
        assert wa.aligned_count() == 64

    def test_rejects_partial_gcd(self):
        with pytest.raises(ConstructionError, match="GCD"):
            construct_warp_assignment(32, 12)

    def test_rejects_e_at_least_w(self):
        with pytest.raises(ConstructionError):
            construct_warp_assignment(32, 33)

    def test_e_equal_w_is_power_case(self):
        wa = construct_warp_assignment(16, 16)
        assert wa.aligned_count() == 256

    def test_memoized_per_w_e(self):
        """Sweep points construct the same assignment repeatedly; the
        frozen result is shared rather than rebuilt."""
        first = construct_warp_assignment(32, 15)
        assert construct_warp_assignment(32, 15) is first
        assert construct_warp_assignment(32, 17) is not first

    def test_failures_not_cached(self):
        for _ in range(2):
            with pytest.raises(ConstructionError, match="GCD"):
                construct_warp_assignment(32, 12)
