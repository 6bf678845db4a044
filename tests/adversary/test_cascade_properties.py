"""The composed-index un-merge cascade against the two-mask reference.

:func:`repro.adversary.permutation.unmerge_through_rounds` composes every
level's window-local gather into one index and gathers the values once.
``two_mask_unmerge`` below is the level-by-level implementation it
replaced — two boolean-mask gathers over all ``N`` elements per level —
kept here as the oracle. The two must agree byte for byte on every
configuration, target subset, off-target mode, seed, family member and
value array.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.assignment import construct_warp_assignment
from repro.adversary.family import random_family_member
from repro.adversary.interleave import round_interleave, sorted_interleave
from repro.adversary.permutation import unmerge_through_rounds, worst_case_permutation
from repro.errors import ValidationError
from repro.sort.config import SortConfig
from repro.utils.rng import as_generator

#: (w, E, b) triples the paper's constructions cover: power-of-two E,
#: Theorem 3 (E < w/2) and Theorem 9 (w/2 < E < w).
CONFIGS = [(4, 2, 8), (4, 3, 8), (8, 3, 16), (8, 4, 16), (8, 5, 16),
           (8, 7, 16), (16, 7, 32), (16, 9, 32)]


def two_mask_unmerge(
    config, sorted_values, assignment, target_runs=None, off_target="sorted", seed=0
):
    """Reference cascade: split every ``2L`` window level by level."""
    rng = as_generator(seed)
    arr = np.asarray(sorted_values).copy()
    n = arr.size
    run = n // 2
    while run >= config.E:
        if target_runs is None or run in target_runs:
            pattern = round_interleave(config, run, assignment)
        elif off_target == "random":
            pattern = np.zeros(2 * run, dtype=bool)
            pattern[rng.choice(2 * run, size=run, replace=False)] = True
        else:
            pattern = sorted_interleave(2 * run)
        mat = arr.reshape(-1, 2 * run)
        out = np.empty_like(mat)
        out[:, :run] = mat[:, pattern]
        out[:, run:] = mat[:, ~pattern]
        arr = out.reshape(-1)
        run //= 2
    return arr


def _run_lengths(config, n):
    runs = []
    run = n // 2
    while run >= config.E:
        runs.append(run)
        run //= 2
    return runs


@st.composite
def cascades(draw):
    w, e, b = draw(st.sampled_from(CONFIGS))
    config = SortConfig(elements_per_thread=e, block_size=b, warp_size=w)
    n = config.tile_size * draw(st.sampled_from([1, 2, 4, 8]))
    assignment = construct_warp_assignment(w, e)
    if draw(st.booleans()):
        assignment = random_family_member(
            assignment, seed=draw(st.integers(0, 2**16))
        )
    runs = _run_lengths(config, n)
    target_runs = draw(
        st.one_of(st.none(), st.sets(st.sampled_from(runs)))
    )
    off_target = draw(st.sampled_from(["sorted", "random"]))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["arange", "gaps", "float"]))
    if kind == "arange":
        values = np.arange(n, dtype=np.int64)
    else:
        steps = np.random.default_rng(seed).integers(1, 50, size=n)
        values = np.cumsum(steps) - 1000
        if kind == "float":
            values = values.astype(np.float64) / 8
    return config, values, assignment, target_runs, off_target, seed


@given(cascades())
@settings(max_examples=150, deadline=None)
def test_matches_two_mask_reference(case):
    config, values, assignment, target_runs, off_target, seed = case
    got = unmerge_through_rounds(
        config, values, assignment, target_runs, off_target, seed
    )
    want = two_mask_unmerge(
        config, values, assignment, target_runs, off_target, seed
    )
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_input_values_untouched():
    config = SortConfig(elements_per_thread=3, block_size=8, warp_size=4)
    values = np.arange(config.tile_size * 4, dtype=np.int64)
    before = values.copy()
    out = worst_case_permutation(config, values.size, values=values)
    np.testing.assert_array_equal(values, before)
    assert not np.shares_memory(out, values)


def test_thrust_scale_matches_reference():
    """One paper-size case: the Thrust parameters over 8 tiles."""
    config = SortConfig(elements_per_thread=15, block_size=512, warp_size=32)
    n = config.tile_size * 8
    assignment = construct_warp_assignment(config.w, config.E)
    values = np.arange(n, dtype=np.int64)
    assert (
        unmerge_through_rounds(config, values, assignment).tobytes()
        == two_mask_unmerge(config, values, assignment).tobytes()
    )


def test_rejects_runs_that_do_not_halve():
    """20 elements with E=2 give runs 10, 5, 2: the level-2 windows
    straddle the level-5 halves, so no window-local index exists."""
    config = SortConfig(elements_per_thread=2, block_size=8, warp_size=4)
    assignment = construct_warp_assignment(config.w, config.E)
    with pytest.raises(ValidationError, match="halve"):
        unmerge_through_rounds(config, np.arange(20), assignment)
