"""Merge Path partitioning: diagonal (mutual) binary searches.

For sorted lists ``A`` and ``B`` and a *diagonal* ``d`` (an output rank),
the merge-path split point is the unique ``i`` such that the first ``d``
elements of the stable merge consist of ``A[:i]`` and ``B[:d−i]``. Stability
follows Thrust: on equal keys, ``A`` elements come first.

Two entry points:

* :func:`merge_path_search` — one diagonal, pure Python ints, the reference
  implementation the property tests check everything against;
* :func:`partition_with_trace` — all threads' diagonals at once, vectorized,
  recording every probe address so the partition stage's bank conflicts
  (the paper's ``β₁``) can be scored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dmm.trace import NO_ACCESS, AccessTrace
from repro.errors import ValidationError
from repro.utils.validation import check_nonnegative_int

__all__ = [
    "PartitionResult",
    "merge_path_partition",
    "merge_path_search",
    "partition_many_with_trace",
    "partition_with_trace",
    "PROBE_TABLE_CAP",
    "probe_tile_counts",
]


def merge_path_search(a: np.ndarray, b: np.ndarray, diagonal: int) -> tuple[int, int]:
    """Split point ``(i, j)`` with ``i + j = diagonal`` for a stable merge.

    ``i`` is the number of elements the first ``diagonal`` output slots take
    from ``a`` (ties resolved a-first, matching Thrust).

    Examples
    --------
    >>> import numpy as np
    >>> merge_path_search(np.array([1, 3, 5]), np.array([2, 4, 6]), 3)
    (2, 1)
    """
    a = np.asarray(a)
    b = np.asarray(b)
    diagonal = check_nonnegative_int(diagonal, "diagonal")
    if diagonal > a.size + b.size:
        raise ValidationError(
            f"diagonal {diagonal} exceeds |A| + |B| = {a.size + b.size}"
        )
    lo = max(0, diagonal - b.size)
    hi = min(diagonal, a.size)
    while lo < hi:
        mid = (lo + hi) // 2
        # Stable (a-first) split: a[mid] belongs to the first `diagonal`
        # outputs iff a[mid] <= b[diagonal - mid - 1].
        if a[mid] <= b[diagonal - mid - 1]:
            lo = mid + 1
        else:
            hi = mid
    return lo, diagonal - lo


def merge_path_partition(
    a: np.ndarray, b: np.ndarray, num_parts: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split points for ``num_parts`` equal quantiles of the merged output.

    Returns arrays ``ai``, ``bj`` of length ``num_parts + 1``: part ``p``
    merges ``a[ai[p]:ai[p+1]]`` with ``b[bj[p]:bj[p+1]]``. The total length
    must divide evenly by ``num_parts``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if num_parts < 1:
        raise ValidationError(f"num_parts must be >= 1, got {num_parts}")
    total = a.size + b.size
    if total % num_parts:
        raise ValidationError(
            f"|A| + |B| = {total} is not divisible by num_parts = {num_parts}"
        )
    quantile = total // num_parts
    diagonals = np.arange(num_parts + 1, dtype=np.int64) * quantile
    ai, bj, _ = partition_with_trace(a, b, diagonals)
    return ai, bj


@dataclass(frozen=True)
class PartitionResult:
    """Vectorized partition output plus its probe trace."""

    a_index: np.ndarray
    b_index: np.ndarray
    trace: AccessTrace


def partition_many_with_trace(
    values: np.ndarray,
    a_base: np.ndarray,
    a_len: np.ndarray,
    b_base: np.ndarray,
    b_len: np.ndarray,
    diagonals: np.ndarray,
    trace_a_base: np.ndarray | None = None,
    trace_b_base: np.ndarray | None = None,
    visit=None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Many independent merge-path searches over windows of one flat buffer.

    Each *lane* ``t`` searches its own ``(A, B)`` pair: ``A`` is
    ``values[a_base[t] : a_base[t] + a_len[t]]`` (sorted), ``B`` likewise,
    and ``diagonals[t]`` is the output rank to split at. This is the shape
    of the block-level merge rounds, where one thread block hosts many
    sub-warp merge groups and every thread bisects simultaneously in
    lock-step.

    ``trace_a_base`` / ``trace_b_base`` translate probe indices into the
    *addresses* recorded in the trace (tile-local shared-memory addresses,
    which differ from the flat-buffer indices when the trace is scored
    against a per-tile address space); they default to ``a_base``/``b_base``.

    ``visit``, if given, is called once per bisection iteration as
    ``visit(lanes, a_addr, b_addr)`` — the still-searching lane indices
    (ascending) and their ``A``/``B`` probe addresses — instead of
    recording the dense probe matrix (:func:`probe_tile_counts` counts
    conflicts this way).

    Returns
    -------
    (a_split, dense_steps):
        Per-lane ``A`` split counts, and the dense ``(steps, lanes)`` probe
        address matrix (``NO_ACCESS`` where a lane's search had converged;
        ``None`` with ``visit``). Each bisection iteration contributes two
        steps (the ``A`` probe and the ``B`` probe — separate load
        instructions).
    """
    values = np.asarray(values)
    a_base = np.asarray(a_base, dtype=np.int64)
    a_len = np.asarray(a_len, dtype=np.int64)
    b_base = np.asarray(b_base, dtype=np.int64)
    b_len = np.asarray(b_len, dtype=np.int64)
    diagonals = np.asarray(diagonals, dtype=np.int64)
    if trace_a_base is None:
        trace_a_base = a_base
    if trace_b_base is None:
        trace_b_base = b_base
    trace_a_base = np.asarray(trace_a_base, dtype=np.int64)
    trace_b_base = np.asarray(trace_b_base, dtype=np.int64)

    lanes = diagonals.size
    shapes = {
        a_base.shape, a_len.shape, b_base.shape, b_len.shape,
        diagonals.shape, trace_a_base.shape, trace_b_base.shape,
    }
    if shapes != {(lanes,)}:
        raise ValidationError("all per-lane arrays must share one 1-D shape")
    if np.any(diagonals < 0) or np.any(diagonals > a_len + b_len):
        raise ValidationError("diagonals out of range [0, |A| + |B|]")

    lo = np.maximum(0, diagonals - b_len)
    hi = np.minimum(diagonals, a_len)

    # A lane's bisection interval of span s converges in at most
    # bit_length(s) iterations (two probe steps each); preallocating the
    # dense probe matrix avoids a per-iteration row list + vstack. The
    # loop carries its per-lane state compressed to the still-searching
    # lanes, so late iterations (most lanes already converged) pay
    # neither full-width passes nor per-iteration gathers.
    dense = None
    if visit is None:
        max_span = int((hi - lo).max()) if lanes else 0
        dense = np.full(
            (2 * max_span.bit_length(), lanes), NO_ACCESS, dtype=np.int64
        )
    row = 0
    idx = np.nonzero(lo < hi)[0]
    l, h, d = lo[idx], hi[idx], diagonals[idx]
    a_at, b_at = a_base[idx], b_base[idx]
    trace_a, trace_b = trace_a_base[idx], trace_b_base[idx]
    while idx.size:
        mid = (l + h) >> 1
        b_probe = d - mid - 1

        if visit is None:
            dense[row, idx] = trace_a + mid
            dense[row + 1, idx] = trace_b + b_probe
        else:
            visit(idx, trace_a + mid, trace_b + b_probe)
        row += 2

        take_a = values[a_at + mid] <= values[b_at + b_probe]
        l = np.where(take_a, mid + 1, l)
        h = np.where(take_a, h, mid)
        searching = l < h
        if not searching.all():
            lo[idx[~searching]] = l[~searching]
            idx, l, h, d = idx[searching], l[searching], h[searching], d[searching]
            a_at, b_at = a_at[searching], b_at[searching]
            trace_a, trace_b = trace_a[searching], trace_b[searching]

    return lo, None if dense is None else dense[:row]


#: Largest ``(warp-step, bank)`` count table one counting pass may fill
#: (256 KiB of int64). Rounds with few lanes batch several bisection
#: iterations into one pass up to this size, which keeps per-pass numpy
#: overhead off small rounds; wide rounds count every iteration on its own
#: and never allocate more than two steps' worth.
PROBE_TABLE_CAP = 1 << 15


def probe_tile_counts(
    values: np.ndarray,
    a_base: np.ndarray,
    a_len: np.ndarray,
    b_base: np.ndarray,
    b_len: np.ndarray,
    diagonals: np.ndarray,
    trace_a_base: np.ndarray,
    trace_b_base: np.ndarray,
    *,
    num_groups: int,
    warp_size: int,
    layout=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """β₁ probe conflict counts per lane group, without the probe matrix.

    Runs :func:`partition_many_with_trace`'s lane-compressed bisection
    over ``num_groups`` equal groups of consecutive lanes (one thread
    block each; warps are consecutive runs of ``warp_size`` lanes) and
    counts the probe steps of the lanes still searching as it goes: one
    1-D sort of ``(warp, step, physical address)`` keys drops broadcast
    duplicates, one bincount over ``(warp, step, bank)`` counts requests.
    A pass covers one iteration's two probe steps, or several iterations
    when few lanes search (:data:`PROBE_TABLE_CAP`). ``layout`` (a
    :class:`~repro.mitigation.base.Mitigation`, or ``None`` for the
    identity) maps ``(address, lane)`` to a physical address.

    Returns ``(per_step, group_steps, accesses, requests, replays)``:
    the per-step transaction counts of every group in stacked order
    (group, warp, step) with each group's trailing all-idle steps
    trimmed, the number of those entries per group, and each group's
    access / request / replay counters — exactly what
    ``count_conflicts`` reports for each group's part of
    ``stack_group_warp_steps(dense, num_groups, warp_size)`` after the
    layout's remap, where ``dense`` is the probe matrix
    :func:`partition_many_with_trace` would have recorded.
    """
    w = warp_size
    lanes = np.asarray(diagonals).size
    warps = lanes // w
    group_warps = warps // num_groups
    # The warp size is a power of two: shifts, not divisions.
    log_w = w.bit_length() - 1
    per_pass = max(1, PROBE_TABLE_CAP // (2 * lanes))  # iterations per pass
    pending = []  # searching lanes and probe addresses of uncounted iterations
    found = []  # per pass: (maxima, requests, replays), each (warps, steps)
    searched = np.zeros(warps, dtype=np.int64)  # lane-iterations per warp

    def count_pending():
        nonlocal searched
        iterations = len(pending)
        if iterations == 1:
            idx, a_addr, b_addr = pending[0]
        else:
            idx, a_addr, b_addr = (np.concatenate(part) for part in zip(*pending))
        warp = idx >> log_w
        searched += np.bincount(warp, minlength=warps)
        if layout is not None:
            lane = idx & (w - 1)
            a_addr = layout.physical(a_addr, lane, w)
            b_addr = layout.physical(b_addr, lane, w)
        rows = 2 * iterations * warps
        # Key = (warp, step, physical address), narrowed to int32 when it
        # fits: the sort is the dominant cost and halves with the width.
        shift = max(int(max(a_addr.max(), b_addr.max())).bit_length(), log_w)
        dtype = np.int32 if shift + (rows - 1).bit_length() <= 31 else np.int64
        n = idx.size
        # The A probe's (warp, step) row, shifted: warp·2k + 2·iteration.
        row_key = warp * (2 * iterations << shift)
        if iterations > 1:
            steps = np.arange(0, 2 * iterations, 2) << shift
            row_key += np.repeat(steps, [p[0].size for p in pending])
        pending.clear()
        row_key = row_key.astype(dtype)
        keys = np.empty(2 * n, dtype=dtype)
        np.bitwise_or(row_key, a_addr, out=keys[:n], casting="unsafe")
        np.bitwise_or(row_key, b_addr, out=keys[n:], casting="unsafe")
        keys[n:] |= dtype(1 << shift)  # the B probe is the next step
        keys.sort()
        fresh = np.empty(keys.size, dtype=bool)
        fresh[0] = True
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys[fresh]  # broadcast: one request per distinct address
        bins = (keys >> shift).astype(np.intp)
        bins <<= log_w
        bins |= keys & (w - 1)
        counts = np.bincount(bins, minlength=rows * w).reshape(
            warps, 2 * iterations, w
        )
        requests = counts.sum(axis=2)
        found.append(
            (
                counts.max(axis=2),
                requests,
                requests - np.count_nonzero(counts, axis=2),
            )
        )

    def visit(idx, a_addr, b_addr):
        pending.append((idx, a_addr, b_addr))
        if len(pending) == per_pass:
            count_pending()

    partition_many_with_trace(
        values, a_base, a_len, b_base, b_len, diagonals,
        trace_a_base, trace_b_base, visit=visit,
    )
    if pending:
        count_pending()
    if not found:
        zeros = np.zeros(num_groups, dtype=np.int64)
        return np.empty(0, dtype=np.int64), zeros, zeros, zeros, zeros

    # (counter, group, warp, step) across all passes.
    cube = np.stack(
        [np.concatenate([f[c] for f in found], axis=1) for c in range(3)]
    )
    steps = cube.shape[2]
    cube = cube.reshape(3, num_groups, group_warps, steps)
    # Trim each group after its last active step, as stack_group_warp_steps.
    active = (cube[1] > 0).any(axis=1)  # (groups, steps)
    kept = np.where(
        active.any(axis=1), steps - np.argmax(active[:, ::-1], axis=1), 0
    )
    keep = np.arange(steps)[None, :] < kept[:, None]
    per_step = cube[0][np.broadcast_to(keep[:, None, :], cube.shape[1:])]
    requests, replays = cube[1:].sum(axis=(2, 3))
    # Every searching lane issues both probes of its iteration.
    accesses = 2 * searched.reshape(num_groups, group_warps).sum(axis=1)
    return per_step, kept * group_warps, accesses, requests, replays


def partition_with_trace(
    a: np.ndarray,
    b: np.ndarray,
    diagonals: np.ndarray,
    a_base: int = 0,
    b_base: int = 0,
) -> tuple[np.ndarray, np.ndarray, AccessTrace]:
    """All diagonals' split points at once, with probe addresses recorded.

    Each bisection iteration issues two lock-step accesses per active lane —
    a probe of ``a[mid]`` and of ``b[d − mid − 1]`` — recorded as two trace
    steps (they are separate load instructions on the GPU). Lanes whose
    search has converged go inactive.

    Parameters
    ----------
    a, b:
        The sorted lists.
    diagonals:
        Output ranks to split at (one per searching thread).
    a_base, b_base:
        Address offsets of the two lists within the memory the trace is
        scored against (shared-memory tile or global buffer).

    Returns
    -------
    (a_index, b_index, trace)
    """
    a = np.asarray(a)
    b = np.asarray(b)
    diagonals = np.asarray(diagonals, dtype=np.int64)
    if diagonals.ndim != 1:
        raise ValidationError("diagonals must be 1-D")
    if diagonals.size and (
        int(diagonals.min()) < 0 or int(diagonals.max()) > a.size + b.size
    ):
        raise ValidationError("diagonals out of range [0, |A| + |B|]")

    lo = np.maximum(0, diagonals - b.size).astype(np.int64)
    hi = np.minimum(diagonals, a.size).astype(np.int64)

    lanes = diagonals.size
    max_span = int((hi - lo).max()) if lanes else 0
    dense = np.full(
        (2 * max_span.bit_length(), lanes), NO_ACCESS, dtype=np.int64
    )
    row = 0
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) // 2
        b_probe = diagonals - mid - 1

        dense[row, active] = a_base + mid[active]
        dense[row + 1, active] = b_base + b_probe[active]
        row += 2

        take_a = np.zeros(lanes, dtype=bool)
        take_a[active] = a[mid[active]] <= b[b_probe[active]]
        lo = np.where(take_a, mid + 1, lo)
        hi = np.where(active & ~take_a, mid, hi)

    trace = AccessTrace.from_dense(dense[:row])
    return lo, diagonals - lo, trace
