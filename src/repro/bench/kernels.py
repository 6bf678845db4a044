"""Kernel-level micro-benchmarks behind ``repro-mergesort bench kernels``.

The gated trajectory rows (``BENCH_simulator.json``) time whole
simulations; when one of them drifts, the first question is *which kernel
moved*. This module times the scoring primitives in isolation — the
row-merge kernel, the per-tile counting kernels of the numpy paths, the
numpy global rounds' block windows, block-round scoring, global-round
scoring, and the end-to-end fused exact sort — and emits entries in the
same shape as ``benchmarks/conftest.py:record_timing`` (``seconds`` =
median, plus ``min_seconds``/``iqr_seconds`` so noise is distinguishable
from drift), so the output JSON can be diffed or gated with
``benchmarks/check_regression.py`` exactly like the committed baseline.

Backend behavior: every entry records the active fused backend
(``native``/``numpy``). ``kernel_merge_pairs`` and ``kernel_sort_fused``
measure the real code path of whichever backend is live;
``kernel_tile_merge_counts``/``kernel_probe_tile_counts`` are numpy on
both backends (the default vectorized path runs them either way; the
probe kernel replays the searches from the splits the merge order fixes,
as the sorter does), as is
``kernel_global_windows`` (the window searches and window argsorts every
numpy global round runs in place of full-row argsorts);
``kernel_block_scoring``/``kernel_global_scoring`` call the compiled
round scorers directly and are skipped (not emitted) when the extension
is unavailable — a missing row is visible in the JSON rather than a
number measuring something else.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import numpy as np

from repro.dmm import fused as dmm_fused
from repro.inputs.generators import generate
from repro.mergepath import fused as fused_kernels
from repro.mergepath.partition import prefix_splits, probe_tile_counts
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort, global_block_windows
from repro.utils.validation import check_positive_int

__all__ = ["kernel_benchmarks"]


def _measure(fn: Callable[[], object], repeat: int) -> dict:
    """Median/min/IQR timing entry (``record_timing``-shaped) of ``fn``."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    entry = {
        "seconds": round(statistics.median(times), 6),
        "min_seconds": round(min(times), 6),
    }
    if len(times) >= 4:
        q1, _, q3 = statistics.quantiles(times, n=4)
        entry["iqr_seconds"] = round(q3 - q1, 6)
    else:
        entry["iqr_seconds"] = round(max(times) - min(times), 6)
    return entry


def _merge_entry(mat: np.ndarray, run: int, repeat: int) -> dict:
    """Time one full round of pairwise row merges, real backend path."""
    if fused_kernels.native_round_ready(mat.reshape(-1)):
        out = np.empty_like(mat)
        entry = _measure(
            lambda: fused_kernels.merge_pairs(mat, run, out), repeat
        )
    else:

        def argsort_merge():
            order = np.argsort(mat, axis=1, kind="stable")
            return np.take_along_axis(mat, order, axis=1)

        entry = _measure(argsort_merge, repeat)
    entry.update(rows=int(mat.shape[0]), run=int(run))
    return entry


def kernel_benchmarks(
    config: SortConfig,
    *,
    tiles: int = 16,
    repeat: int = 5,
    seed: int = 0,
) -> dict[str, dict]:
    """Run the kernel suite; ``{name: timing-entry}`` (insertion-ordered).

    ``tiles`` sets the working-set size (``N = tiles · bE``); ``repeat``
    the samples per kernel (median reported). Entries carry the problem
    shape and the active backend as extra fields.
    """
    check_positive_int(tiles, "tiles")
    check_positive_int(repeat, "repeat")
    backend = dmm_fused.active_backend()
    tile = config.tile_size
    n = tile * tiles
    data = generate("random", config, n, seed=seed)
    timings: dict[str, dict] = {}

    # Row-merge kernel at the largest block-round width (rows = one tile).
    run = tile // 2
    mat = np.sort(data.reshape(-1, run), axis=1).reshape(-1, tile)
    timings["kernel_merge_pairs"] = _merge_entry(mat, run, repeat)

    # The per-tile counting kernels behind every numpy scoring path (the
    # default vectorized path runs them on both backends), on
    # the same round: each row of ``mat`` is one tile's pair.
    scored = np.arange(min(tiles, 8), dtype=np.int64)
    addr_by_rank = np.argsort(mat[scored], axis=1, kind="stable")
    timings["kernel_tile_merge_counts"] = _measure(
        lambda: dmm_fused.tile_merge_counts(addr_by_rank, config.E, config.w),
        repeat,
    )
    # β₁ replay from the splits the round's merge order fixes (each tile
    # is one pair, so the order row is the tile's rank→address map).
    diagonals = np.arange(config.b, dtype=np.int64) * config.E
    splits = prefix_splits(addr_by_rank < run, diagonals).reshape(-1)
    lanes = splits.size
    local = np.zeros(lanes, dtype=np.int64)
    halves = np.full(lanes, run, dtype=np.int64)
    probe_args = dict(
        a_len=halves,
        b_len=halves,
        diagonals=np.tile(diagonals, scored.size),
        trace_a_base=local,
        trace_b_base=local + run,
        num_groups=scored.size,
        warp_size=config.w,
    )
    timings["kernel_probe_tile_counts"] = _measure(
        lambda: probe_tile_counts(splits, **probe_args), repeat
    )
    for name in ("kernel_tile_merge_counts", "kernel_probe_tile_counts"):
        timings[name].update(tiles_scored=int(scored.size), run=int(run))

    if tiles >= 2:
        # The numpy global-round merge layer: each scored block's two
        # window searches plus its window argsort, on the first global
        # round (pair rows of two tiles).
        gmat = np.sort(data.reshape(-1, tile), axis=1).reshape(-1, 2 * tile)
        gscored = np.arange(min(tiles, 8), dtype=np.int64)
        timings["kernel_global_windows"] = _measure(
            lambda: global_block_windows(gmat, tile, gscored, tile), repeat
        )
        timings["kernel_global_windows"].update(
            blocks_scored=int(gscored.size), run=int(tile)
        )

    if dmm_fused.native_enabled():
        flat_pre = np.ascontiguousarray(mat.reshape(-1))
        timings["kernel_block_scoring"] = _measure(
            lambda: fused_kernels.fused_block_reports(
                flat_pre, scored, run, config.E, config.b, config.w, 0
            ),
            repeat,
        )
        timings["kernel_block_scoring"].update(
            tiles_scored=int(scored.size), run=int(run)
        )
        if tiles >= 2:
            timings["kernel_global_scoring"] = _measure(
                lambda: fused_kernels.fused_global_reports(
                    gmat.reshape(-1), gscored, tile, config.E, config.b,
                    config.w, 0,
                ),
                repeat,
            )
            timings["kernel_global_scoring"].update(
                blocks_scored=int(gscored.size), run=int(tile)
            )

    sorter = PairwiseMergeSort(config, scoring="fused")
    timings["kernel_sort_fused"] = _measure(
        lambda: sorter.sort(data, seed=seed), repeat
    )
    timings["kernel_sort_fused"].update(n=int(n))

    for entry in timings.values():
        entry["backend"] = backend
    return timings
