"""Fused conflict counting: round aggregates without ``AccessTrace``.

The trace-based pipeline (kept by the ``scoring="loop"`` oracle)
materializes, per round, the ``(E, threads)`` address matrices, a dense
probe-step matrix, and :class:`AccessTrace` objects, then reduces them
with a sort + bincount pass. Every other simulated path collapses that
dataflow: counting goes straight from addresses to the handful of
:class:`~repro.dmm.conflicts.ConflictReport` counters via bincounts over
flattened ``(step-row, bank)`` keys, and — on the fused path, when the
optional compiled backend is importable — straight from the pre-merge
values to the counters with no intermediate arrays at all.

This module owns the merge-stage counting primitives and the backend
switch:

* :func:`report_from_per_step` — assemble a :class:`ConflictReport` from a
  per-step transaction sequence plus the access/request/replay counters
  (the shape both backends reduce to);
* :func:`tile_merge_counts` — per-tile merge-stage counts of ``(tiles,
  bE)`` rank→address rows under any layout. Each row is a permutation of
  its tile's cells, so two lanes of one step can never read the same
  address: broadcast deduplication is provably a no-op and the whole
  stage is one bincount — no row sort, no trace.
  :func:`permutation_stage_report` concatenates its tiles into one report;
* :func:`dense_report` — scoring of any stacked ``(rows, w)``
  physical-address matrix, bit-identical to
  ``count_conflicts(AccessTrace.from_dense(dense), w)`` without building
  the trace. (The partition stage counts with
  :func:`repro.mergepath.partition.probe_tile_counts`, which never builds
  the matrix.)

Backend switch: :func:`native_enabled` is true when the optional compiled
module :mod:`repro._fused_native` imported successfully and the
``REPRO_FORCE_NUMPY`` environment variable is unset/``0``. The toggle is
read per call, so tests can flip backends without re-importing; both
backends are bit-identical (``tests/sort/test_fused_equivalence.py``).
"""

from __future__ import annotations

import os

import numpy as np

from repro.dmm.conflicts import ConflictReport

__all__ = [
    "FORCE_NUMPY_ENV",
    "active_backend",
    "dense_report",
    "native_enabled",
    "native_module",
    "permutation_stage_report",
    "report_from_per_step",
    "tile_merge_counts",
]

#: Environment variable disabling the compiled backend at runtime (any
#: value other than empty/``0``); the numpy fused path is used instead.
FORCE_NUMPY_ENV = "REPRO_FORCE_NUMPY"

try:  # pragma: no cover - exercised via both CI legs
    from repro import _fused_native as _native
except ImportError:  # the extension is optional by design
    _native = None


def native_module():
    """The compiled module, or ``None`` when it is not importable."""
    return _native


def native_enabled() -> bool:
    """Whether fused scoring dispatches to the compiled backend."""
    if _native is None:
        return False
    return os.environ.get(FORCE_NUMPY_ENV, "").strip() in ("", "0")


def active_backend() -> str:
    """``"native"`` or ``"numpy"`` — what fused scoring would use now."""
    return "native" if native_enabled() else "numpy"


def report_from_per_step(
    num_banks: int,
    per_step: np.ndarray,
    num_accesses: int,
    num_requests: int,
    total_replays: int,
) -> ConflictReport:
    """Assemble a :class:`ConflictReport` from fused counters.

    ``per_step`` is the per-step transaction sequence in trace-row order;
    transactions/max-degree derive from it, the other counters are passed
    through. An empty sequence yields :meth:`ConflictReport.empty`,
    matching what the trace-based path produces for an empty stack.
    """
    per_step = np.ascontiguousarray(per_step, dtype=np.int64)
    if per_step.size == 0:
        return ConflictReport.empty(num_banks)
    return ConflictReport(
        num_banks=num_banks,
        num_steps=int(per_step.size),
        num_accesses=int(num_accesses),
        num_requests=int(num_requests),
        total_transactions=int(per_step.sum()),
        total_replays=int(total_replays),
        max_degree=int(per_step.max()),
        step_segments=((per_step, 1),),
    )


def tile_merge_counts(
    addr_by_rank: np.ndarray,
    elements_per_thread: int,
    warp_size: int,
    layout=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-tile merge-stage counts for ``(tiles, bE)`` rank→address rows.

    Each row must be a permutation of its tile's cells — true for every
    merge round's rank→address map (block rounds permute the tile, global
    rounds permute the block's A∪B window). Thread ``t`` reads rank
    ``tE + j`` at step ``j`` on lane ``t mod w``, so rank ``r`` lands in
    trace row ``(r // wE)·E + r mod E`` of its tile, on lane ``(r // E)
    mod w``. ``layout`` (a :class:`~repro.mitigation.base.Mitigation`, or
    ``None`` for the identity) maps ``(address, lane)`` to a physical
    address; a layout never sends two distinct addresses of one step to
    one physical cell, so no broadcast can occur: requests equal accesses
    and a step's replays are its lanes minus its occupied banks. One
    bincount over flattened ``(tile, row, bank)`` keys replaces the
    reshape → stack → trace → sort-dedup pipeline.

    Returns ``(per_step, replays)``: the ``(tiles, (b/w)·E)`` per-step
    transaction counts in trace-row order, and each tile's replay count.
    """
    rows2d = np.ascontiguousarray(addr_by_rank, dtype=np.int64)
    tiles, ranks = rows2d.shape
    e = elements_per_thread
    w = warp_size
    rows_per_tile = ranks // w
    r = np.arange(ranks, dtype=np.int64)
    phys = rows2d if layout is None else layout.physical(rows2d, (r // e) % w, w)
    keys = phys & np.int64(w - 1)
    keys += ((r // (w * e)) * e + r % e) * w
    keys += np.arange(0, tiles * ranks, ranks, dtype=np.int64)[:, None]
    counts = np.bincount(keys.ravel(), minlength=tiles * ranks).reshape(
        tiles, rows_per_tile, w
    )
    per_step = counts.max(axis=2)
    replays = ranks - np.count_nonzero(counts, axis=(1, 2))
    return per_step, replays.astype(np.int64, copy=False)


def permutation_stage_report(
    addr_by_rank: np.ndarray,
    elements_per_thread: int,
    warp_size: int,
    layout=None,
) -> ConflictReport:
    """Merge-stage report of every ``(tiles, bE)`` row at once: the
    :func:`tile_merge_counts` tiles concatenated in row order."""
    per_step, replays = tile_merge_counts(
        addr_by_rank, elements_per_thread, warp_size, layout
    )
    accesses = int(np.asarray(addr_by_rank).size)
    return report_from_per_step(
        warp_size, per_step.ravel(), accesses, accesses, int(replays.sum())
    )


def dense_report(dense: np.ndarray, num_banks: int) -> ConflictReport:
    """Score a stacked ``(rows, w)`` physical-address matrix directly.

    Bit-identical to ``count_conflicts(AccessTrace.from_dense(dense),
    num_banks)`` — same row-sort broadcast dedup, same bincount — minus
    the trace object and its activity-mask copies. Negative entries mark
    inactive lanes.
    """
    dense = np.asarray(dense, dtype=np.int64)
    if dense.size == 0:
        return ConflictReport.empty(num_banks)
    addrs = np.sort(dense, axis=1)
    keep = np.empty(addrs.shape, dtype=bool)
    keep[:, 0] = addrs[:, 0] >= 0
    if addrs.shape[1] > 1:
        keep[:, 1:] = (addrs[:, 1:] >= 0) & (addrs[:, 1:] != addrs[:, :-1])
    steps = addrs.shape[0]
    keys = addrs & np.int64(num_banks - 1)
    keys += np.arange(steps, dtype=np.int64)[:, None] * num_banks
    counts = (
        np.bincount(keys[keep], minlength=steps * num_banks)
        .reshape(steps, num_banks)
        .astype(np.int64, copy=False)
    )
    per_step = counts.max(axis=1)
    return report_from_per_step(
        num_banks,
        per_step,
        num_accesses=int((dense >= 0).sum()),
        num_requests=int(counts.sum()),
        total_replays=int(np.maximum(counts - 1, 0).sum()),
    )
