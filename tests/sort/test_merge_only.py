"""Merge-only sorts: ``PairwiseMergeSort.sort(..., partitions=False)``.

A merge-only sort skips counting the partition-stage (β₁) probes. Its
values, merge reports, staging and traffic must equal the full sort's on
every scoring path. Cycle counts, the kernel cost and the wire encoding
need the missing probes and must raise instead of undercounting; replay
totals count the stages that were counted.
"""

import dataclasses

import numpy as np
import pytest

import repro.sort.pairwise as pairwise_mod
from repro.analysis.beta import betas_from_result
from repro.errors import SimulationError
from repro.inputs.generators import generate
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort
from repro.sort.serialize import (
    reports_identical,
    result_to_obj,
    results_identical,
)

CONFIGS = {
    "small-e": SortConfig(elements_per_thread=3, block_size=16, warp_size=8),
    "large-e": SortConfig(elements_per_thread=5, block_size=16, warp_size=8),
}
TILES = 8


def _merge_only_equals_full(full, merge_only):
    assert np.array_equal(merge_only.values, full.values)
    assert merge_only.values.dtype == full.values.dtype
    assert len(merge_only.rounds) == len(full.rounds)
    for a, b in zip(full.rounds, merge_only.rounds):
        assert b.partition_report is None
        assert reports_identical(a.merge_report, b.merge_report)
        assert reports_identical(a.staging_report, b.staging_report)
        assert a.global_traffic == b.global_traffic
        assert (a.label, a.kind, a.run_length, a.compute_instructions) == (
            b.label, b.kind, b.run_length, b.compute_instructions
        )
        assert (a.blocks_total, a.blocks_scored) == (
            b.blocks_total, b.blocks_scored
        )
        assert b.merge_replays == a.merge_replays
    # Restoring the full sort's partition reports gives the full result.
    restored = dataclasses.replace(
        merge_only,
        rounds=[
            dataclasses.replace(b, partition_report=a.partition_report)
            for a, b in zip(full.rounds, merge_only.rounds)
        ],
    )
    assert results_identical(restored, full)


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS)
@pytest.mark.parametrize("scoring", ["vectorized", "loop", "fused"])
@pytest.mark.parametrize("name", ["random", "few-unique", "worst-case"])
@pytest.mark.parametrize("score_blocks", [None, 1, 3])
def test_merge_reports_equal_the_full_sort(config, scoring, name, score_blocks):
    data = generate(name, config, config.tile_size * TILES, seed=3)
    sorter = PairwiseMergeSort(config, scoring=scoring)
    full = sorter.sort(data, score_blocks=score_blocks, seed=7)
    merge_only = sorter.sort(
        data, score_blocks=score_blocks, seed=7, partitions=False
    )
    _merge_only_equals_full(full, merge_only)


@pytest.mark.parametrize("mitigation", ["padding:1", "cfree-sort"])
def test_mitigated_layouts(mitigation):
    config = CONFIGS["small-e"]
    data = generate("worst-case", config, config.tile_size * TILES)
    sorter = PairwiseMergeSort(config, mitigation=mitigation)
    _merge_only_equals_full(
        sorter.sort(data, score_blocks=2),
        sorter.sort(data, score_blocks=2, partitions=False),
    )


def test_analytic_path():
    config = CONFIGS["small-e"]
    data = generate("worst-case", config, config.tile_size * TILES)
    sorter = PairwiseMergeSort(config, scoring="analytic")
    _merge_only_equals_full(
        sorter.sort(data), sorter.sort(data, partitions=False)
    )


def test_signed_zeros():
    """Inputs holding both zeros merge round by round on both sides."""
    config = CONFIGS["small-e"]
    rng = np.random.default_rng(1)
    data = rng.choice([-0.0, 0.0, -1.0, 1.0], config.tile_size * TILES)
    sorter = PairwiseMergeSort(config)
    full = sorter.sort(data, score_blocks=2)
    merge_only = sorter.sort(data, score_blocks=2, partitions=False)
    _merge_only_equals_full(full, merge_only)
    assert np.array_equal(np.signbit(full.values), np.signbit(merge_only.values))


def test_no_probe_is_counted(monkeypatch):
    config = CONFIGS["small-e"]
    data = generate("random", config, config.tile_size * TILES, seed=2)

    def forbidden(*args, **kwargs):
        raise AssertionError("β₁ probes counted in a merge-only sort")

    for name in ("probe_tile_counts", "prefix_splits"):
        monkeypatch.setattr(pairwise_mod, name, forbidden)
    for scoring in ("vectorized", "fused"):
        for score_blocks in (None, 2):
            PairwiseMergeSort(config, scoring=scoring).sort(
                data, score_blocks=score_blocks, partitions=False
            )
    with pytest.raises(AssertionError, match="merge-only"):
        PairwiseMergeSort(config).sort(data)


class TestMergeOnlyResultsRaise:
    @pytest.fixture
    def result(self):
        config = CONFIGS["small-e"]
        data = generate("random", config, config.tile_size * 4, seed=0)
        return PairwiseMergeSort(config).sort(data, partitions=False)

    def test_kernel_cost(self, result):
        with pytest.raises(SimulationError, match="partitions=False"):
            result.kernel_cost()

    def test_result_to_obj(self, result):
        with pytest.raises(SimulationError, match="partitions=False"):
            result_to_obj(result)

    @pytest.mark.parametrize(
        "name", ["shared_cycles", "shared_steps", "partition_replays"]
    )
    def test_round_aggregates(self, result, name):
        for stats in result.rounds:
            with pytest.raises(SimulationError, match=stats.label):
                getattr(stats, name)

    def test_betas(self, result):
        with pytest.raises(SimulationError, match="partitions=False"):
            betas_from_result(result)

    def test_replays_count_the_counted_stages(self, result):
        for stats in result.rounds:
            assert stats.replays == (
                stats.merge_replays + stats.staging_report.total_replays
            )
        assert result.total_replays() == sum(r.replays for r in result.rounds)
