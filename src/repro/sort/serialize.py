"""Bit-exact JSON-compatible serialization of sort results.

The service layer (:mod:`repro.service`) ships :class:`SortResult`\\ s
over the wire; consumers must not be able to tell whether a result was
computed locally or served. Every codec here therefore round-trips
*exactly*: integer counters stay integers, arrays keep their dtype and
shape (raw little-endian bytes, base64), and the run-length-compressed
``step_segments`` of a :class:`~repro.dmm.conflicts.ConflictReport` come
back as the same ``(period, repeats)`` pairs that went in — never
materialized.

Because :class:`ConflictReport` holds NumPy arrays, dataclass ``==`` is
not usable for comparing reports; :func:`results_identical` and
:func:`reports_identical` implement the field-wise bit-identity check
used by the protocol tests and the service smoke script.
"""

from __future__ import annotations

import base64

import numpy as np

from repro.dmm.conflicts import ConflictReport
from repro.errors import ValidationError
from repro.gpu.global_memory import GlobalTraffic
from repro.sort.config import SortConfig
from repro.sort.pairwise import RoundStats, SortResult

__all__ = [
    "array_from_obj",
    "array_to_obj",
    "config_from_obj",
    "config_to_obj",
    "report_from_obj",
    "report_to_obj",
    "reports_identical",
    "result_from_obj",
    "result_to_obj",
    "results_identical",
    "round_from_obj",
    "round_to_obj",
]


# -- arrays -----------------------------------------------------------------


def array_to_obj(arr: np.ndarray) -> dict:
    """Encode an array as ``{dtype, shape, data}`` with base64 raw bytes."""
    arr = np.ascontiguousarray(arr)
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def array_from_obj(obj: dict) -> np.ndarray:
    """Decode :func:`array_to_obj` output back to a writable array."""
    try:
        dtype = np.dtype(obj["dtype"])
        shape = tuple(int(s) for s in obj["shape"])
        raw = base64.b64decode(obj["data"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed array object: {exc}") from exc
    expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
    if len(raw) != expected:
        raise ValidationError(
            f"array payload holds {len(raw)} bytes, expected {expected} "
            f"for dtype {dtype.str} shape {shape}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


# -- config -----------------------------------------------------------------


def config_to_obj(config: SortConfig) -> dict:
    """Full field set of a :class:`SortConfig` (JSON-safe)."""
    return {
        "elements_per_thread": int(config.elements_per_thread),
        "block_size": int(config.block_size),
        "warp_size": int(config.warp_size),
        "element_bytes": int(config.element_bytes),
        "name": config.name,
    }


def config_from_obj(obj: dict) -> SortConfig:
    """Rebuild a :class:`SortConfig`; validation reruns in __post_init__."""
    try:
        return SortConfig(
            elements_per_thread=int(obj["elements_per_thread"]),
            block_size=int(obj["block_size"]),
            warp_size=int(obj["warp_size"]),
            element_bytes=int(obj["element_bytes"]),
            name=str(obj["name"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed config object: {exc}") from exc


# -- conflict reports -------------------------------------------------------


def report_to_obj(report: ConflictReport) -> dict:
    """Encode a report, preserving its segment structure exactly."""
    return {
        "num_banks": int(report.num_banks),
        "num_steps": int(report.num_steps),
        "num_accesses": int(report.num_accesses),
        "num_requests": int(report.num_requests),
        "total_transactions": int(report.total_transactions),
        "total_replays": int(report.total_replays),
        "max_degree": int(report.max_degree),
        "step_segments": [
            {"period": array_to_obj(period), "repeats": int(repeats)}
            for period, repeats in report.step_segments
        ],
    }


def report_from_obj(obj: dict) -> ConflictReport:
    """Decode :func:`report_to_obj` output."""
    try:
        return ConflictReport(
            num_banks=int(obj["num_banks"]),
            num_steps=int(obj["num_steps"]),
            num_accesses=int(obj["num_accesses"]),
            num_requests=int(obj["num_requests"]),
            total_transactions=int(obj["total_transactions"]),
            total_replays=int(obj["total_replays"]),
            max_degree=int(obj["max_degree"]),
            step_segments=tuple(
                (array_from_obj(seg["period"]), int(seg["repeats"]))
                for seg in obj["step_segments"]
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed report object: {exc}") from exc


# -- rounds and results -----------------------------------------------------


def round_to_obj(stats: RoundStats) -> dict:
    """Encode one :class:`RoundStats`."""
    return {
        "label": stats.label,
        "kind": stats.kind,
        "run_length": int(stats.run_length),
        "merge_report": report_to_obj(stats.merge_report),
        "partition_report": report_to_obj(stats.counted_partition_report),
        "staging_report": report_to_obj(stats.staging_report),
        "global_traffic": {
            "transactions": int(stats.global_traffic.transactions),
            "words": int(stats.global_traffic.words),
        },
        "compute_instructions": int(stats.compute_instructions),
        "blocks_total": int(stats.blocks_total),
        "blocks_scored": int(stats.blocks_scored),
    }


def round_from_obj(obj: dict) -> RoundStats:
    """Decode :func:`round_to_obj` output."""
    try:
        traffic = obj["global_traffic"]
        return RoundStats(
            label=str(obj["label"]),
            kind=str(obj["kind"]),
            run_length=int(obj["run_length"]),
            merge_report=report_from_obj(obj["merge_report"]),
            partition_report=report_from_obj(obj["partition_report"]),
            staging_report=report_from_obj(obj["staging_report"]),
            global_traffic=GlobalTraffic(
                transactions=int(traffic["transactions"]),
                words=int(traffic["words"]),
            ),
            compute_instructions=int(obj["compute_instructions"]),
            blocks_total=int(obj["blocks_total"]),
            blocks_scored=int(obj["blocks_scored"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed round object: {exc}") from exc


def result_to_obj(result: SortResult, *, include_values: bool = True) -> dict:
    """Encode a :class:`SortResult`.

    ``include_values=False`` drops the (potentially large) sorted array;
    the decoded result then carries an empty ``values`` array and
    ``"values": None`` on the wire. ``"memo_stats"`` is always ``None``;
    the field stays so existing readers keep parsing.
    """
    return {
        "values": array_to_obj(result.values) if include_values else None,
        "config": config_to_obj(result.config),
        "num_elements": int(result.num_elements),
        "rounds": [round_to_obj(r) for r in result.rounds],
        "memo_stats": None,
    }


def result_from_obj(obj: dict) -> SortResult:
    """Decode :func:`result_to_obj` output.

    A ``"memo_stats"`` object from an older server is ignored.
    """
    try:
        values = obj["values"]
        return SortResult(
            values=(
                np.empty(0, dtype=np.int64)
                if values is None
                else array_from_obj(values)
            ),
            config=config_from_obj(obj["config"]),
            num_elements=int(obj["num_elements"]),
            rounds=[round_from_obj(r) for r in obj["rounds"]],
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed result object: {exc}") from exc


# -- bit-identity checks ----------------------------------------------------


def _arrays_identical(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and bool(np.array_equal(a, b))


def reports_identical(a: ConflictReport, b: ConflictReport) -> bool:
    """Field-wise equality, including segment structure and dtypes."""
    if (
        a.num_banks != b.num_banks
        or a.num_steps != b.num_steps
        or a.num_accesses != b.num_accesses
        or a.num_requests != b.num_requests
        or a.total_transactions != b.total_transactions
        or a.total_replays != b.total_replays
        or a.max_degree != b.max_degree
        or len(a.step_segments) != len(b.step_segments)
    ):
        return False
    return all(
        ra == rb and _arrays_identical(pa, pb)
        for (pa, ra), (pb, rb) in zip(a.step_segments, b.step_segments)
    )


def _rounds_identical(a: RoundStats, b: RoundStats) -> bool:
    return (
        a.label == b.label
        and a.kind == b.kind
        and a.run_length == b.run_length
        and a.global_traffic == b.global_traffic
        and a.compute_instructions == b.compute_instructions
        and a.blocks_total == b.blocks_total
        and a.blocks_scored == b.blocks_scored
        and reports_identical(a.merge_report, b.merge_report)
        and reports_identical(a.partition_report, b.partition_report)
        and reports_identical(a.staging_report, b.staging_report)
    )


def results_identical(
    a: SortResult, b: SortResult, *, require_values: bool = True
) -> bool:
    """Whether two sort results are bit-identical.

    With ``require_values=False`` the sorted arrays are ignored (for
    comparing against a result served with ``include_values=False``).
    """
    if (
        a.config != b.config
        or a.num_elements != b.num_elements
        or len(a.rounds) != len(b.rounds)
    ):
        return False
    if require_values and not _arrays_identical(a.values, b.values):
        return False
    return all(_rounds_identical(ra, rb) for ra, rb in zip(a.rounds, b.rounds))
