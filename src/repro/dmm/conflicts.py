"""Exact bank-conflict accounting over access traces.

Three related metrics appear in the paper and in practice; this module
computes all of them so every statement can be tested against the construct:

* **transactions** — per warp-step, the number of serialized cycles the step
  costs: ``max_b (#distinct-address requests to bank b)``. A conflict-free
  step costs 1. The paper's "``E²`` total bank conflicts" for the small-``E``
  construction is the *sum of transactions* over the ``E`` merge steps
  contributed by the aligned accesses (``E`` steps × ``E``-way degree).
* **replays** — what Nvidia's profilers count
  (``l1tex__data_bank_conflicts`` / ``shared_ld_bank_conflict``): per step,
  ``Σ_b max(#requests_b − 1, 0)``, i.e. extra cycles beyond the first.
* **degree** — the worst per-step serialization ``max_j transactions_j``;
  Lemma 1 bounds it by ``min(⌈k/w⌉, w)``.

Concurrent reads of the *same address* broadcast (cost one request) —
footnote 1 of the paper; concurrent writes to the same address are a CREW
violation detected by :mod:`repro.dmm.machine`, not here.

Everything is vectorized: the counter runs over a whole trace as three
NumPy passes regardless of the number of steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dmm.trace import AccessKind, AccessTrace
from repro.utils.validation import check_power_of_two

__all__ = [
    "ConflictReport",
    "count_conflicts",
    "report_segments",
    "step_transactions",
]


@dataclass(frozen=True)
class ConflictReport:
    """Aggregate conflict metrics for one trace (or a merged set of traces).

    Attributes
    ----------
    num_banks:
        Bank count ``w`` the trace was scored against.
    num_steps:
        Lock-step iterations scored.
    num_accesses:
        Total element accesses (before broadcast deduplication).
    num_requests:
        Bank requests after broadcast deduplication.
    total_transactions:
        Serialized cycles: ``Σ_j max_b requests_b(j)``.
    total_replays:
        Profiler-style conflicts: ``Σ_j Σ_b (requests_b(j) − 1)⁺``.
    max_degree:
        Worst single-step serialization.
    step_segments:
        The per-step cost sequence as a run-length-compressed segment list
        of ``(period, repeats)`` pairs: the full per-step array is the
        concatenation of each period tiled ``repeats`` times. Directly
        counted traces hold one ``(per_step, 1)`` segment; :meth:`scaled`
        multiplies repeat counts and :meth:`merged` concatenates segment
        lists, so neither ever materializes the ``O(steps·repeats)``
        array — the synthesized path scales single-tile traces by very
        large block counts.
    """

    num_banks: int
    num_steps: int
    num_accesses: int
    num_requests: int
    total_transactions: int
    total_replays: int
    max_degree: int
    step_segments: tuple = ()

    @property
    def step_period(self) -> np.ndarray:
        """One period of per-step costs (materialized for multi-segment
        reports; prefer :attr:`step_segments` for those)."""
        if not self.step_segments:
            return np.empty(0, dtype=np.int64)
        if len(self.step_segments) == 1:
            return self.step_segments[0][0]
        return self.per_step_transactions

    @property
    def step_repeats(self) -> int:
        """How many times :attr:`step_period` repeats to span the report."""
        if len(self.step_segments) == 1:
            return self.step_segments[0][1]
        return 1

    @property
    def per_step_transactions(self) -> np.ndarray:
        """Length-``num_steps`` int array of per-step costs.

        Materialized on demand for repeated (scaled) reports; prefer the
        summary counters or :attr:`step_segments` when repeat factors are
        large.
        """
        if not self.step_segments:
            return np.empty(0, dtype=np.int64)
        parts = [
            np.tile(period, repeats) if repeats > 1 else period
            for period, repeats in self.step_segments
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    @property
    def conflict_free_cycles(self) -> int:
        """Cycles the trace would cost with zero conflicts (= active steps)."""
        return sum(
            int(np.count_nonzero(period)) * repeats
            for period, repeats in self.step_segments
        )

    @property
    def slowdown_factor(self) -> float:
        """Serialized cycles / conflict-free cycles (1.0 = conflict free)."""
        base = self.conflict_free_cycles
        return float(self.total_transactions) / base if base else 1.0

    @property
    def replays_per_access(self) -> float:
        """Average profiler-style conflicts per element access."""
        return self.total_replays / self.num_accesses if self.num_accesses else 0.0

    def merged(self, other: "ConflictReport") -> "ConflictReport":
        """Combine two reports as if the traces ran back to back.

        Used to aggregate per-warp reports into per-round and per-sort
        totals. Requires matching bank counts.
        """
        if self.num_banks != other.num_banks:
            from repro.errors import SimulationError

            raise SimulationError(
                f"cannot merge reports with {self.num_banks} and "
                f"{other.num_banks} banks"
            )
        # Concatenating the segment lists keeps both sides' laziness: a
        # report scaled by a huge block count merges in O(1) memory.
        return ConflictReport(
            num_banks=self.num_banks,
            num_steps=self.num_steps + other.num_steps,
            num_accesses=self.num_accesses + other.num_accesses,
            num_requests=self.num_requests + other.num_requests,
            total_transactions=self.total_transactions + other.total_transactions,
            total_replays=self.total_replays + other.total_replays,
            max_degree=max(self.max_degree, other.max_degree),
            step_segments=self.step_segments + other.step_segments,
        )

    def scaled(self, factor: int) -> "ConflictReport":
        """Report for ``factor`` identical copies of this trace.

        The fast simulation path uses this: the constructed adversarial input
        is periodic across warps/blocks, so one representative trace scored
        once stands in for all of them. Only the repeat count grows — the
        per-step period is shared, so scaling by a huge block count costs
        O(1) memory.
        """
        if factor < 0:
            from repro.errors import ValidationError

            raise ValidationError(f"factor must be nonnegative, got {factor}")
        if factor == 0:
            segments = ()
        elif len(self.step_segments) <= 1:
            segments = tuple(
                (period, repeats * factor)
                for period, repeats in self.step_segments
            )
        else:
            # Multi-segment sequence repeated whole: tuple repetition keeps
            # each segment's period shared (O(segments·factor) references).
            segments = self.step_segments * factor
        return ConflictReport(
            num_banks=self.num_banks,
            num_steps=self.num_steps * factor,
            num_accesses=self.num_accesses * factor,
            num_requests=self.num_requests * factor,
            total_transactions=self.total_transactions * factor,
            total_replays=self.total_replays * factor,
            max_degree=self.max_degree if factor else 0,
            step_segments=segments,
        )

    @staticmethod
    def empty(num_banks: int) -> "ConflictReport":
        """The identity element for :meth:`merged`."""
        return ConflictReport(
            num_banks=num_banks,
            num_steps=0,
            num_accesses=0,
            num_requests=0,
            total_transactions=0,
            total_replays=0,
            max_degree=0,
            step_segments=(),
        )


def _request_counts(trace: AccessTrace, num_banks: int) -> np.ndarray:
    """Per-(step, bank) request counts after broadcast deduplication.

    Returns a ``(num_steps, num_banks)`` int64 matrix.
    """
    steps = trace.num_steps
    if trace.num_accesses == 0:
        return np.zeros((steps, num_banks), dtype=np.int64)

    # Inactive lanes hold NO_ACCESS (< 0, an AccessTrace invariant) and so
    # sort below every valid address: a row-wise sort + neighbor comparison
    # deduplicates per step without the hash pass a global ``np.unique``
    # would pay (the warp width is tiny, so the sort is effectively linear
    # in the trace size).
    addrs = trace.addresses
    if trace.kind is AccessKind.READ:
        # Broadcast: identical (step, address) pairs collapse to one request.
        addrs = np.sort(addrs, axis=1)
        keep = np.empty(addrs.shape, dtype=bool)
        keep[:, 0] = addrs[:, 0] >= 0
        if addrs.shape[1] > 1:
            keep[:, 1:] = (addrs[:, 1:] >= 0) & (addrs[:, 1:] != addrs[:, :-1])
    else:
        # Writes to the same address never broadcast (and same-address
        # concurrent writes are illegal under CREW — caught by the machine,
        # not scored here).
        keep = trace.active

    # num_banks is a power of two, so bank = addr & (w − 1).
    keys = addrs & np.int64(num_banks - 1)
    keys += np.arange(steps, dtype=np.int64)[:, None] * num_banks
    flat = np.bincount(keys[keep], minlength=steps * num_banks)
    return flat.reshape(steps, num_banks).astype(np.int64, copy=False)


def step_transactions(trace: AccessTrace, num_banks: int) -> np.ndarray:
    """Per-step serialized cycle counts (``max_b requests_b``)."""
    num_banks = check_power_of_two(num_banks, "num_banks")
    counts = _request_counts(trace, num_banks)
    if counts.size == 0:
        return np.zeros(trace.num_steps, dtype=np.int64)
    return counts.max(axis=1)


def report_segments(
    trace: AccessTrace, num_banks: int, boundaries: np.ndarray
) -> list[ConflictReport]:
    """Score one stacked trace, split into independent per-segment reports.

    ``boundaries`` is a nondecreasing int array of step indices starting at
    0 and ending at ``trace.num_steps``; segment ``i`` covers steps
    ``boundaries[i]:boundaries[i+1]``. Because every conflict metric is
    additive over steps, scoring the stacked trace once and slicing is
    bit-identical to scoring each segment's sub-trace separately — but pays
    the request-counting pass only once. The simulator's per-tile counting
    kernels (:func:`repro.dmm.fused.tile_merge_counts`,
    :func:`repro.mergepath.partition.probe_tile_counts`) produce the same
    per-tile reports without a trace.
    """
    num_banks = check_power_of_two(num_banks, "num_banks")
    boundaries = np.asarray(boundaries, dtype=np.int64)
    if (
        boundaries.ndim != 1
        or boundaries.size < 1
        or boundaries[0] != 0
        or boundaries[-1] != trace.num_steps
        or np.any(np.diff(boundaries) < 0)
    ):
        from repro.errors import ValidationError

        raise ValidationError(
            f"boundaries must rise from 0 to num_steps={trace.num_steps}, "
            f"got {boundaries!r}"
        )

    counts = _request_counts(trace, num_banks)
    if counts.size:
        per_step = counts.max(axis=1)
        step_requests = counts.sum(axis=1)
        step_replays = np.maximum(counts - 1, 0).sum(axis=1)
    else:
        per_step = np.zeros(trace.num_steps, dtype=np.int64)
        step_requests = per_step
        step_replays = per_step
    step_accesses = trace.active.sum(axis=1)

    reports = []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        seg = per_step[lo:hi]
        if seg.size == 0:
            reports.append(ConflictReport.empty(num_banks))
            continue
        seg = seg.copy()  # own the memory: these reports outlive the trace
        reports.append(
            ConflictReport(
                num_banks=num_banks,
                num_steps=int(hi - lo),
                num_accesses=int(step_accesses[lo:hi].sum()),
                num_requests=int(step_requests[lo:hi].sum()),
                total_transactions=int(seg.sum()),
                total_replays=int(step_replays[lo:hi].sum()),
                max_degree=int(seg.max()),
                step_segments=((seg, 1),),
            )
        )
    return reports


def count_conflicts(trace: AccessTrace, num_banks: int) -> ConflictReport:
    """Score a trace against ``num_banks`` banks.

    Examples
    --------
    A warp of 4 lanes reading one full column is conflict free:

    >>> import numpy as np
    >>> from repro.dmm.trace import AccessTrace
    >>> t = AccessTrace.from_dense(np.array([[0, 1, 2, 3]]))
    >>> count_conflicts(t, 4).total_replays
    0

    All four lanes hitting bank 0 with distinct addresses serialize 4-way:

    >>> t = AccessTrace.from_dense(np.array([[0, 4, 8, 12]]))
    >>> r = count_conflicts(t, 4)
    >>> (r.total_transactions, r.total_replays, r.max_degree)
    (4, 3, 4)

    Reading the *same* address broadcasts:

    >>> t = AccessTrace.from_dense(np.array([[4, 4, 4, 4]]))
    >>> count_conflicts(t, 4).total_transactions
    1
    """
    num_banks = check_power_of_two(num_banks, "num_banks")
    counts = _request_counts(trace, num_banks)
    per_step = (
        counts.max(axis=1)
        if counts.size
        else np.zeros(trace.num_steps, dtype=np.int64)
    )
    num_requests = int(counts.sum())
    replays = int(np.maximum(counts - 1, 0).sum())
    per_step = per_step.astype(np.int64)
    return ConflictReport(
        num_banks=num_banks,
        num_steps=trace.num_steps,
        num_accesses=trace.num_accesses,
        num_requests=num_requests,
        total_transactions=int(per_step.sum()),
        total_replays=replays,
        max_degree=int(per_step.max()) if per_step.size else 0,
        step_segments=((per_step, 1),) if per_step.size else (),
    )
