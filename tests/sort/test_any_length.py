"""Tests for arbitrary-length sorting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.sort.any_length import sort_any_length
from repro.sort.config import SortConfig


@pytest.fixture
def cfg():
    return SortConfig(elements_per_thread=3, block_size=8, warp_size=4)


class TestSortAnyLength:
    def test_exact_tile_multiple(self, cfg, rng):
        data = rng.permutation(cfg.tile_size * 2)
        out = sort_any_length(data, cfg)
        assert np.array_equal(out.values, np.sort(data))
        assert out.padding_overhead == 1.0

    def test_ragged(self, cfg, rng):
        data = rng.integers(-50, 50, size=100)
        out = sort_any_length(data, cfg)
        assert np.array_equal(out.values, np.sort(data))
        assert out.padded_elements >= 100
        assert out.num_elements == 100

    def test_tiny(self, cfg):
        out = sort_any_length(np.array([2, 1]), cfg)
        assert out.values.tolist() == [1, 2]

    def test_rejects_empty(self, cfg):
        with pytest.raises(ValidationError):
            sort_any_length(np.array([]), cfg)

    def test_rejects_2d(self, cfg):
        with pytest.raises(ValidationError):
            sort_any_length(np.zeros((2, 2)), cfg)

    def test_metrics_rescaled(self, cfg, rng):
        data = rng.permutation(50)
        out = sort_any_length(data, cfg)
        assert out.replays_per_element() >= out.padded_result.replays_per_element()

    def test_with_padding_mitigation(self, cfg, rng):
        data = rng.permutation(77)
        out = sort_any_length(data, cfg, mitigation="padding:1")
        assert np.array_equal(out.values, np.sort(data))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-99, 99), min_size=1, max_size=200))
    def test_property(self, values):
        cfg = SortConfig(elements_per_thread=3, block_size=8, warp_size=4)
        out = sort_any_length(np.array(values), cfg)
        assert out.values.tolist() == sorted(values)
