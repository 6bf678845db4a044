"""Warp-shaped trace assembly for the merging stage.

After partitioning, thread ``t`` of a merge reads its ``E`` assigned
elements in increasing value order — one element per lock-step iteration
``j``. In trace terms: the address matrix has shape ``(E, num_threads)``
with entry ``(j, t)`` = address of the ``j``-th smallest element of thread
``t``'s quantile. Splitting that matrix into ``w``-lane column groups gives
the per-warp traces the conflict model scores.

The address of output rank ``r`` comes straight from the merge interleaving
(:func:`repro.mergepath.serial_merge.interleaving_addresses`); thread ``t``
owns ranks ``tE … tE+E−1``. This makes the whole merging stage one reshape —
no per-element Python.
"""

from __future__ import annotations

import numpy as np

from repro.dmm.trace import AccessTrace
from repro.errors import ValidationError
from repro.utils.validation import check_positive_int

__all__ = [
    "batched_rank_addresses",
    "merge_stage_trace",
    "stack_group_warp_steps",
    "stack_warp_steps",
    "thread_rank_addresses",
    "warp_traces",
]


def stack_warp_steps(step_matrix: np.ndarray, warp_size: int) -> np.ndarray:
    """Fold a ``(steps, num_threads)`` matrix into ``(steps·warps, warp_size)``.

    Warps execute independently, and total conflict metrics are additive
    across warps, so scoring the *stacked* matrix as a single trace equals
    scoring each warp separately and merging — at a fraction of the Python
    overhead. ``num_threads`` must be a multiple of ``warp_size``.
    """
    step_matrix = np.asarray(step_matrix, dtype=np.int64)
    if step_matrix.ndim != 2:
        raise ValidationError(
            f"step matrix must be 2-D (steps, threads), got {step_matrix.shape}"
        )
    steps, threads = step_matrix.shape
    if threads % warp_size:
        raise ValidationError(
            f"thread count {threads} is not a multiple of warp size "
            f"{warp_size}; stack_warp_steps folds full warps only — for a "
            f"trailing partial warp use warp_traces, which pads it with "
            f"inactive lanes"
        )
    num_warps = threads // warp_size
    return (
        step_matrix.reshape(steps, num_warps, warp_size)
        .transpose(1, 0, 2)
        .reshape(steps * num_warps, warp_size)
    )


def thread_rank_addresses(
    rank_addresses: np.ndarray, elements_per_thread: int
) -> np.ndarray:
    """Reshape per-rank addresses into the ``(E, num_threads)`` step matrix.

    ``rank_addresses[r]`` is where output rank ``r`` lives; thread ``t``
    reads ranks ``tE+j`` at step ``j``.
    """
    rank_addresses = np.asarray(rank_addresses, dtype=np.int64)
    e = check_positive_int(elements_per_thread, "elements_per_thread")
    if rank_addresses.ndim != 1 or rank_addresses.size % e:
        raise ValidationError(
            f"rank addresses of size {rank_addresses.size} do not divide into "
            f"threads of {e} elements"
        )
    # (threads, E) -> transpose -> (E, threads): row j = step j.
    return rank_addresses.reshape(-1, e).T


def batched_rank_addresses(
    rank_addresses: np.ndarray, elements_per_thread: int
) -> np.ndarray:
    """Batched :func:`thread_rank_addresses` over many tiles at once.

    ``rank_addresses`` has shape ``(tiles, ranks)``: row ``g`` is one tile's
    per-rank address map. Returns the ``(E, tiles·threads)`` step matrix
    whose columns are tile-major — identical to horizontally concatenating
    each tile's ``thread_rank_addresses`` result, so (for thread counts
    that are warp multiples) feeding it to :func:`stack_warp_steps` equals
    stacking the per-tile matrices one after another.
    """
    rank_addresses = np.asarray(rank_addresses, dtype=np.int64)
    e = check_positive_int(elements_per_thread, "elements_per_thread")
    if rank_addresses.ndim != 2 or rank_addresses.shape[1] % e:
        raise ValidationError(
            f"batched rank addresses of shape {rank_addresses.shape} do not "
            f"divide into (tiles, threads x {e} elements)"
        )
    tiles, ranks = rank_addresses.shape
    threads = ranks // e
    # (tiles, threads, E) -> (E, tiles, threads): step-major, tile-major.
    return (
        rank_addresses.reshape(tiles, threads, e)
        .transpose(2, 0, 1)
        .reshape(e, tiles * threads)
    )


def stack_group_warp_steps(
    step_matrix: np.ndarray,
    num_groups: int,
    warp_size: int,
) -> np.ndarray:
    """Per-group :func:`stack_warp_steps` with trailing-idle-step trimming.

    ``step_matrix`` is ``(steps, num_groups·group_size)``: the lanes of
    ``num_groups`` independent lock-step groups (e.g. one thread block per
    scored tile) recorded side by side, where a group whose lanes all
    converged early holds only negative (inactive) entries in its trailing
    steps. Equivalent to splitting into per-group matrices, dropping each
    group's trailing all-inactive steps, applying :func:`stack_warp_steps`
    to each, and stacking the results in group order — without the
    per-group Python loop. This is the layout
    :func:`~repro.mergepath.partition.probe_tile_counts` counts without
    materializing it.
    """
    step_matrix = np.asarray(step_matrix, dtype=np.int64)
    if step_matrix.ndim != 2:
        raise ValidationError(
            f"step matrix must be 2-D (steps, lanes), got {step_matrix.shape}"
        )
    num_groups = check_positive_int(num_groups, "num_groups")
    steps, lanes = step_matrix.shape
    if lanes % num_groups:
        raise ValidationError(
            f"lane count {lanes} is not a multiple of {num_groups} groups"
        )
    group_size = lanes // num_groups
    if group_size % warp_size:
        raise ValidationError(
            f"group size {group_size} is not a multiple of warp size {warp_size}"
        )
    warps = group_size // warp_size
    if steps == 0:
        return np.empty((0, warp_size), dtype=np.int64)

    cube = step_matrix.reshape(steps, num_groups, group_size)
    group_active = (cube >= 0).any(axis=2)  # (steps, num_groups)
    has_any = group_active.any(axis=0)
    # Steps kept per group: up to (and including) its last active step.
    kept = np.where(
        has_any, steps - np.argmax(group_active[::-1], axis=0), 0
    )
    # (group, warp, step, lane) C-order matches per-group stack_warp_steps
    # output (warp-major steps) concatenated in group order.
    by_group = cube.reshape(steps, num_groups, warps, warp_size).transpose(
        1, 2, 0, 3
    )
    keep = np.arange(steps)[None, :] < kept[:, None]  # (groups, steps)
    keep = np.broadcast_to(keep[:, None, :], (num_groups, warps, steps))
    return by_group[keep]


def merge_stage_trace(
    rank_addresses: np.ndarray,
    elements_per_thread: int,
    warp_size: int,
) -> list[AccessTrace]:
    """Per-warp merging-stage traces for one merge.

    Threads are grouped into warps of ``warp_size`` in thread order; a
    trailing partial warp is padded with inactive lanes. Returns one trace
    per warp, each with ``E`` steps.
    """
    warp_size = check_positive_int(warp_size, "warp_size")
    matrix = thread_rank_addresses(rank_addresses, elements_per_thread)
    return warp_traces(matrix, warp_size)


def warp_traces(step_matrix: np.ndarray, warp_size: int) -> list[AccessTrace]:
    """Split a ``(steps, num_threads)`` address matrix into per-warp traces.

    Negative addresses mark inactive lanes; a trailing partial warp is
    padded to full width with inactive lanes.
    """
    step_matrix = np.asarray(step_matrix, dtype=np.int64)
    if step_matrix.ndim != 2:
        raise ValidationError(
            f"step matrix must be 2-D (steps, threads), got {step_matrix.shape}"
        )
    steps, threads = step_matrix.shape
    num_warps = -(-threads // warp_size)
    padded = np.full((steps, num_warps * warp_size), -1, dtype=np.int64)
    padded[:, :threads] = step_matrix
    return [
        AccessTrace.from_dense(padded[:, k * warp_size : (k + 1) * warp_size])
        for k in range(num_warps)
    ]
