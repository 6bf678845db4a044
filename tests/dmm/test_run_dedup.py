"""Property tests: counting each run of equal tiles once changes nothing.

The default scoring path counts only the first tile of each run of
adjacent tiles with equal rank→address rows (plus equal A-window lengths
on global rounds) and repeats its counts over the run. The ground truth
is the same sort with every row counted: the encoded reports must be
byte-identical, and both must match the loop oracle. The inputs inject
runs of equal tiles at the start, middle and end of the input, make all
tiles equal or none, with and without duplicate keys, under every
mitigation, in exact and sampled rounds.
"""

import json
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.inputs.generators import generate
from repro.sort import pairwise
from repro.sort.pairwise import PairwiseMergeSort
from repro.sort.serialize import result_to_obj
from tests.engine.comparison import (
    CONFIGS,
    assert_results_identical,
    counting_every_row,
    rows_counted,
)

MITIGATIONS = ("none", "padding:1", "cfree-sort", "cfree-permute")
PLACEMENTS = ("start", "middle", "end", "all", "none")


def encoded(result) -> bytes:
    return json.dumps(result_to_obj(result), sort_keys=True).encode()


def sort(config, data, *, mitigation="none", score_blocks=None, seed=0):
    return PairwiseMergeSort(config, mitigation=mitigation).sort(
        data, score_blocks=score_blocks, seed=seed
    )


def sort_counting_every_row(config, data, **kwargs):
    with counting_every_row():
        return sort(config, data, **kwargs)


def merge_rows_counted(config, data, **kwargs) -> list[int]:
    """Rows each dedup round passes to ``tile_merge_counts``."""
    return rows_counted(lambda: sort(config, data, **kwargs))


def tiled_input(config, templates, seed, ties):
    """Tile ``t`` holds pattern ``templates[t]``: tiles with equal
    templates are ordered alike, so their rows, and those of the global
    blocks they merge into, repeat."""
    rng = np.random.default_rng(seed)
    tile = config.tile_size
    count = max(templates) + 1
    if ties:
        patterns = rng.integers(0, 4, size=(count, tile))
        return np.concatenate([patterns[k] for k in templates]).astype(np.int64)
    patterns = np.stack([rng.permutation(tile) for _ in range(count)])
    tiles = len(templates)
    return np.concatenate(
        [patterns[k] * tiles + t for t, k in enumerate(templates)]
    ).astype(np.int64)


@st.composite
def dedup_cases(draw):
    config_name = draw(st.sampled_from(sorted(CONFIGS)))
    tiles = draw(st.sampled_from([2, 4, 8]))
    placement = draw(st.sampled_from(PLACEMENTS))
    templates = list(range(1, tiles + 1))
    if placement == "all":
        templates = [0] * tiles
    elif placement != "none":
        # "middle" needs a distinct tile on both sides of the run.
        longest = tiles - 2 if placement == "middle" else tiles
        if longest >= 2:
            length = draw(st.integers(min_value=2, max_value=longest))
            if placement == "start":
                start = 0
            elif placement == "end":
                start = tiles - length
            else:
                start = draw(st.integers(1, tiles - length - 1))
            templates[start:start + length] = [0] * length
    return (
        CONFIGS[config_name],
        templates,
        draw(st.integers(min_value=0, max_value=2**32 - 1)),
        draw(st.booleans()),
        draw(st.sampled_from(MITIGATIONS)),
        draw(st.one_of(st.none(), st.integers(min_value=1, max_value=tiles))),
    )


class TestDedupMatchesCountingEveryRow:
    @settings(max_examples=80, deadline=None)
    @given(dedup_cases())
    @example((CONFIGS["small-e"], [0, 0, 1, 2], 0, False, "none", None))
    @example((CONFIGS["pow2-e"], [1, 0, 0, 2], 1, True, "padding:1", 2))
    @example((CONFIGS["large-e"], [1, 2, 0, 0], 2, False, "cfree-sort", None))
    @example((CONFIGS["tiny"], [0] * 8, 3, False, "cfree-permute", 3))
    @example((CONFIGS["small-e"], [1, 2, 3, 4], 4, True, "none", None))
    def test_report_bytes_identical(self, case):
        config, templates, seed, ties, mitigation, score_blocks = case
        data = tiled_input(config, templates, seed, ties)
        kwargs = dict(mitigation=mitigation, score_blocks=score_blocks, seed=seed)
        dedup = sort(config, data, **kwargs)
        assert encoded(dedup) == encoded(
            sort_counting_every_row(config, data, **kwargs)
        )
        loop = PairwiseMergeSort(
            config, scoring="loop", mitigation=mitigation
        ).sort(data, score_blocks=score_blocks, seed=seed)
        assert_results_identical(dedup, loop)

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(["worst-case", "sorted", "sawtooth", "random"]),
        st.sampled_from(MITIGATIONS),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=1000),
    )
    def test_sampled_families_identical(self, name, mitigation, blocks, seed):
        """Sampled rounds dedup in scored order and draw the same blocks."""
        config = CONFIGS["small-e"]
        data = generate(name, config, config.tile_size * 16, seed=seed)
        kwargs = dict(mitigation=mitigation, score_blocks=blocks, seed=seed)
        assert encoded(sort(config, data, **kwargs)) == encoded(
            sort_counting_every_row(config, data, **kwargs)
        )


class TestRunsCountedOnce:
    """The constructed periodic input is pinned in
    ``tests/sort/test_memoized_scoring.py``."""

    def test_all_equal_tiles_count_one_row_per_block_round(self):
        config = CONFIGS["small-e"]
        data = tiled_input(config, [0] * 8, seed=0, ties=False)
        rows = merge_rows_counted(config, data)
        block_rounds = int(np.log2(config.block_size))
        assert rows[:block_rounds] == [1] * block_rounds

    def test_distinct_tiles_take_the_every_row_path(self):
        config = CONFIGS["small-e"]
        data = generate("random", config, config.tile_size * 8, seed=0)
        assert merge_rows_counted(config, data) == []


class TestGlobalWindowSplit:
    def test_equal_rows_with_different_a_windows_stay_apart(self):
        """Regression: two global blocks whose rank→address rows are both
        the identity — all of the A window, then all of B — but whose A
        windows differ in length bisect differently, so they must not
        count as one run."""
        config = CONFIGS["small-e"]
        tile = config.tile_size
        na = tile // 3
        # Merged output: na A's, then B's to the block boundary; the next
        # block starts with A's and ends with na B's.
        pos = np.arange(2 * tile)
        a = np.concatenate([pos[:na], pos[tile:2 * tile - na]])
        b = np.concatenate([pos[na:tile], pos[2 * tile - na:]])
        rng = np.random.default_rng(0)
        data = np.concatenate([rng.permutation(a), rng.permutation(b)])

        calls = []
        original = pairwise._adjacent_runs

        def recording(rows, extra=None):
            runs = original(rows, extra)
            calls.append((rows.copy(), extra, runs[0].size))
            return runs

        with mock.patch.object(pairwise, "_adjacent_runs", recording):
            result = sort(config, data)
        rows, extra, runs = calls[-1]  # the one global round
        assert np.array_equal(rows[0], rows[1])
        assert extra.tolist() == [na, tile - na]
        assert runs == 2
        assert encoded(result) == encoded(sort_counting_every_row(config, data))
        assert_results_identical(
            result, PairwiseMergeSort(config, scoring="loop").sort(data)
        )

    def test_adjacent_runs_split_on_the_extra_column(self):
        rows = np.zeros((4, 6), dtype=np.int64)
        starts, lengths = pairwise._adjacent_runs(rows, np.array([2, 2, 3, 3]))
        assert starts.tolist() == [0, 2] and lengths.tolist() == [2, 2]
        starts, lengths = pairwise._adjacent_runs(rows)
        assert starts.tolist() == [0] and lengths.tolist() == [4]
