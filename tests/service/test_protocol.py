"""Protocol round-trip and schema tests.

The load-bearing property: a :class:`SortResult` (or
:class:`BenchPoint`) pushed through the JSON wire format comes back
bit-identical to the direct library call that produced it — including
array dtypes and run-length segment structure.
"""

import json

import numpy as np
import pytest

from repro.bench.metrics import BenchPoint
from repro.errors import ValidationError
from repro.inputs.generators import generate
from repro.service.protocol import (
    ConstructRequest,
    SimulateRequest,
    SweepRequest,
    point_from_obj,
    point_to_obj,
)
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort
from repro.sort.serialize import (
    array_from_obj,
    array_to_obj,
    config_from_obj,
    config_to_obj,
    reports_identical,
    result_from_obj,
    result_to_obj,
    results_identical,
)

from tests.service.conftest import small_config


def sorted_result(cfg=None, *, tiles=4, seed=0):
    cfg = cfg or small_config()
    data = generate("worst-case", cfg, cfg.tile_size * tiles, seed=seed)
    return PairwiseMergeSort(cfg).sort(data, score_blocks=2, seed=seed)


class TestArrayCodec:
    @pytest.mark.parametrize("dtype", ["<i8", "<i4", "<f8", "|u1"])
    def test_round_trip_dtypes(self, dtype):
        arr = np.arange(13).astype(np.dtype(dtype))
        back = array_from_obj(json.loads(json.dumps(array_to_obj(arr))))
        assert back.dtype == arr.dtype
        assert np.array_equal(back, arr)

    def test_round_trip_2d(self):
        arr = np.arange(12, dtype=np.int64).reshape(3, 4)
        back = array_from_obj(array_to_obj(arr))
        assert back.shape == (3, 4) and np.array_equal(back, arr)

    def test_decoded_array_is_writable(self):
        back = array_from_obj(array_to_obj(np.arange(4)))
        back[0] = 7  # frombuffer views are read-only; the codec must copy

    def test_truncated_payload_rejected(self):
        obj = array_to_obj(np.arange(8, dtype=np.int64))
        obj["shape"] = [9]
        with pytest.raises(ValidationError):
            array_from_obj(obj)

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            array_from_obj({"dtype": "<i8"})


class TestResultRoundTrip:
    def test_bit_identical_via_json(self):
        result = sorted_result()
        wire = json.dumps(result_to_obj(result))
        back = result_from_obj(json.loads(wire))
        assert results_identical(back, result)
        assert back.values.dtype == result.values.dtype

    def test_old_server_memo_stats_object_is_ignored(self):
        result = sorted_result()
        obj = result_to_obj(result)
        obj["memo_stats"] = {"hits": 3, "misses": 1}
        back = result_from_obj(obj)
        assert back.memo_stats is None
        assert results_identical(back, result)

    def test_unmemoized_result_round_trips(self):
        result = sorted_result()
        obj = result_to_obj(result)
        assert obj["memo_stats"] is None
        back = result_from_obj(obj)
        assert back.memo_stats is None
        assert results_identical(back, result)

    def test_without_values(self):
        result = sorted_result()
        obj = result_to_obj(result, include_values=False)
        assert obj["values"] is None
        back = result_from_obj(obj)
        assert back.values.size == 0
        assert results_identical(back, result, require_values=False)
        assert not results_identical(back, result)

    def test_derived_metrics_survive(self):
        result = sorted_result()
        back = result_from_obj(result_to_obj(result))
        assert back.total_shared_cycles() == result.total_shared_cycles()
        assert back.total_replays() == result.total_replays()
        assert back.kernel_cost() == result.kernel_cost()

    def test_segment_structure_not_materialized(self):
        result = sorted_result()
        back = result_from_obj(result_to_obj(result))
        for mine, theirs in zip(back.rounds, result.rounds):
            assert reports_identical(mine.merge_report, theirs.merge_report)
            assert len(mine.merge_report.step_segments) == len(
                theirs.merge_report.step_segments
            )


class TestConfigCodec:
    def test_round_trip(self):
        cfg = small_config(name="custom")
        assert config_from_obj(json.loads(json.dumps(config_to_obj(cfg)))) == cfg

    def test_invalid_config_rejected(self):
        obj = config_to_obj(small_config())
        obj["block_size"] = 33  # not a power of two
        with pytest.raises(ValueError):
            config_from_obj(obj)


class TestBenchPointCodec:
    def test_round_trip(self):
        point = BenchPoint(
            config_name="mgpu",
            device_name="Quadro M4000",
            input_name="worst-case",
            num_elements=123456,
            milliseconds=1.5,
            throughput_meps=82.3,
            replays_per_element=3.25,
            shared_cycles=1000,
            global_transactions=2000,
        )
        assert point_from_obj(json.loads(json.dumps(point_to_obj(point)))) == point

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            point_from_obj({"config_name": "x"})


class TestRequestSchemas:
    def test_simulate_preset_and_config_coalesce(self):
        by_preset = SimulateRequest.from_payload(
            {"preset": "mgpu-maxwell", "tiles": 4}
        )
        by_config = SimulateRequest.from_payload(
            {"config": config_to_obj(by_preset.config), "tiles": 4}
        )
        assert by_preset.coalesce_key() == by_config.coalesce_key()

    def test_simulate_key_sensitive_to_seed(self):
        a = SimulateRequest.from_payload({"preset": "mgpu-maxwell", "tiles": 4})
        b = SimulateRequest.from_payload(
            {"preset": "mgpu-maxwell", "tiles": 4, "seed": 1}
        )
        assert a.coalesce_key() != b.coalesce_key()

    def test_tiles_and_num_elements_exclusive(self):
        with pytest.raises(ValidationError):
            SimulateRequest.from_payload(
                {"preset": "mgpu-maxwell", "tiles": 4, "num_elements": 100}
            )

    def test_unknown_input_rejected(self):
        with pytest.raises(ValidationError):
            SimulateRequest.from_payload(
                {"preset": "mgpu-maxwell", "tiles": 2, "input": "nope"}
            )

    def test_needs_config_or_preset(self):
        with pytest.raises(ValidationError):
            SimulateRequest.from_payload({"tiles": 2})

    def test_non_object_body_rejected(self):
        with pytest.raises(ValidationError):
            SimulateRequest.from_payload([1, 2, 3])

    def test_construct_encoding_validated(self):
        with pytest.raises(ValidationError):
            ConstructRequest.from_payload(
                {"preset": "mgpu-maxwell", "tiles": 2, "encoding": "msgpack"}
            )

    def test_sweep_sizes_from_max_elements(self):
        req = SweepRequest.from_payload(
            {"config": config_to_obj(small_config()), "max_elements": 1000}
        )
        assert req.sizes == (96, 192, 384, 768)

    def test_sweep_rejects_empty_range(self):
        with pytest.raises(ValidationError):
            SweepRequest.from_payload(
                {"config": config_to_obj(small_config()), "max_elements": 10}
            )

    def test_sweep_key_ignores_request_phrasing(self):
        explicit = SweepRequest.from_payload(
            {"config": config_to_obj(small_config()), "sizes": [96, 192]}
        )
        derived = SweepRequest.from_payload(
            {"config": config_to_obj(small_config()), "max_elements": 200}
        )
        assert explicit.coalesce_key() == derived.coalesce_key()

    def test_sweep_unknown_device(self):
        with pytest.raises(ValidationError):
            SweepRequest.from_payload(
                {"preset": "mgpu-maxwell", "sizes": [1920], "device": "h100"}
            )


class TestScoringAndPaddingFields:
    """Parse-time scoring validation (against the engine registry) and
    the padded layout, which the wire spells only as a mitigation spec."""

    def _simulate(self, **extra):
        payload = {"preset": "mgpu-maxwell", "tiles": 2}
        payload.update(extra)
        return SimulateRequest.from_payload(payload)

    def _sweep(self, **extra):
        payload = {"config": config_to_obj(small_config()), "sizes": [96]}
        payload.update(extra)
        return SweepRequest.from_payload(payload)

    def test_unknown_scoring_fails_at_parse_time_simulate(self):
        with pytest.raises(ValidationError, match="'scoring' must be one of"):
            self._simulate(scoring="warp-speed")

    def test_unknown_scoring_fails_at_parse_time_sweep(self):
        with pytest.raises(ValidationError, match="'scoring' must be one of"):
            self._sweep(scoring="warp-speed")

    def test_simulate_rejects_auto(self):
        # /simulate is a single concrete sort; routing happens in sweeps.
        with pytest.raises(ValidationError, match="'scoring'"):
            self._simulate(scoring="auto")

    def test_sweep_accepts_auto_and_defaults_to_registry_default(self):
        from repro.engine.registry import DEFAULT_SCORING

        assert self._sweep().scoring == DEFAULT_SCORING
        assert self._sweep(scoring="auto").scoring == "auto"

    def test_padding_defaults_to_stock_layout(self):
        for request in (self._simulate(), self._sweep()):
            assert request.mitigation == "none"
            assert not hasattr(request, "padding")

    def test_padding_splits_coalesce_keys(self):
        assert self._simulate().coalesce_key() \
            != self._simulate(mitigation="padding:1").coalesce_key()
        assert self._sweep().coalesce_key() \
            != self._sweep(mitigation="padding:1").coalesce_key()

    def test_negative_padding_rejected(self):
        with pytest.raises(ValidationError, match="padding width"):
            self._simulate(mitigation="padding:-1")
        with pytest.raises(ValidationError, match="padding width"):
            self._sweep(mitigation="padding:-1")

    @pytest.mark.parametrize("value", [0, 1, 2])
    def test_stale_padding_field_rejected(self, value):
        """A body still spelling the layout ``padding: N`` is a 400 that
        names the replacement — never silently the stock layout."""
        for parse in (self._simulate, self._sweep):
            with pytest.raises(
                ValidationError, match='"mitigation": "padding:N"'
            ):
                parse(padding=value)

    def test_explicit_null_score_blocks_means_score_all(self):
        assert self._simulate(score_blocks=None).score_blocks is None
        assert self._simulate().score_blocks == 8


class TestMitigationField:
    """The ``mitigation`` wire field: parse-time validation against the
    mitigation registry, canonical specs, and coalesce-key hygiene."""

    def _simulate(self, **extra):
        payload = {"preset": "mgpu-maxwell", "tiles": 2}
        payload.update(extra)
        return SimulateRequest.from_payload(payload)

    def _sweep(self, **extra):
        payload = {"config": config_to_obj(small_config()), "sizes": [96]}
        payload.update(extra)
        return SweepRequest.from_payload(payload)

    def test_defaults_to_none(self):
        assert self._simulate().mitigation == "none"
        assert self._sweep().mitigation == "none"

    def test_unknown_spec_fails_at_parse_time(self):
        with pytest.raises(ValidationError, match="known backends"):
            self._simulate(mitigation="magic")
        with pytest.raises(ValidationError, match="known backends"):
            self._sweep(mitigation="magic")

    def test_spec_is_canonicalized(self):
        """``"padding"`` and ``"padding:1"`` are one request on the wire
        — identical fields, identical coalesce keys — or equivalent
        concurrent requests stop coalescing."""
        bare = self._simulate(mitigation="padding")
        assert bare.mitigation == "padding:1"
        assert bare.coalesce_key() \
            == self._simulate(mitigation="padding:1").coalesce_key()
        assert self._sweep(mitigation="padding").coalesce_key() \
            == self._sweep(mitigation="padding:1").coalesce_key()

    def test_cfree_specs_carry_no_native_padding(self):
        from repro.mitigation import create_mitigation

        request = self._simulate(mitigation="cfree-sort")
        assert request.mitigation == "cfree-sort"
        assert create_mitigation(request.mitigation).native_padding is None

    def test_mitigation_splits_coalesce_keys(self):
        assert self._simulate().coalesce_key() \
            != self._simulate(mitigation="cfree-sort").coalesce_key()
        assert self._sweep(mitigation="cfree-sort").coalesce_key() \
            != self._sweep(mitigation="cfree-permute").coalesce_key()
