"""Instrumented bitonic sort — the oblivious baseline.

The paper's related work (Peters et al.) lists bitonic sort among GPU
comparison sorts. It is *data-oblivious*: the compare-exchange schedule —
hence every shared-memory address ever touched — depends only on ``N``,
never on the keys. That makes it the natural control for the paper's
attack: its bank-conflict count on the constructed worst-case input is
*identical* to its count on random input, at the price of ``Θ(N log² N)``
work versus merge sort's ``Θ(N log N)``.

Model (classic two-elements-per-thread GPU bitonic):

* stages ``size = 2, 4, …, N``; within a stage, exchange distances
  ``d = size/2, …, 1``;
* steps with ``d ≥ tile`` run in global memory (one coalesced
  read-modify-write sweep of the array each);
* steps with ``d < tile`` run in shared memory on resident tiles of
  ``2b`` elements; their accesses are traced and conflict-scored. Because
  the schedule is oblivious and identical across tiles, one tile is scored
  and scaled exactly.

The well-known low-distance bank conflicts are faithfully reproduced: at
``d < w`` a warp's threads touch only every other address run, giving
2-way (and worse) conflicts — visible in the instrumentation as a
constant, input-independent overhead.
"""

from __future__ import annotations

import numpy as np

from repro.dmm.conflicts import ConflictReport, count_conflicts
from repro.dmm.trace import AccessTrace
from repro.errors import ConfigurationError
from repro.gpu.global_memory import CoalescingModel, GlobalTraffic
from repro.mergepath.kernels import stack_warp_steps
from repro.mitigation.registry import create_mitigation
from repro.sort.pairwise import RoundStats, SortResult
from repro.utils.bits import ilog2, is_power_of_two
from repro.utils.validation import check_positive_int, check_power_of_two

__all__ = ["BitonicSort"]


class BitonicSort:
    """Simulated GPU bitonic sort with full conflict instrumentation.

    Parameters
    ----------
    block_size:
        Threads per block ``b``; each thread owns two elements, so the
        shared tile is ``2b`` elements.
    warp_size:
        Warp width / bank count.
    mitigation:
        Layout defense applied to every traced shared-memory address
        (spec string or :class:`~repro.mitigation.base.Mitigation`;
        default ``"none"``, the stock layout).

    Examples
    --------
    >>> import numpy as np
    >>> sorter = BitonicSort(block_size=8, warp_size=4)
    >>> data = np.random.default_rng(0).permutation(64)
    >>> bool(np.array_equal(sorter.sort(data).values, np.sort(data)))
    True
    """

    def __init__(
        self, block_size: int, warp_size: int = 32, *, mitigation="none"
    ):
        self.block_size = check_power_of_two(block_size, "block_size")
        self.warp_size = check_power_of_two(warp_size, "warp_size")
        self.mitigation = create_mitigation(mitigation)
        if block_size < warp_size:
            raise ConfigurationError(
                f"block_size {block_size} must be >= warp_size {warp_size}"
            )

    @property
    def tile_size(self) -> int:
        """Elements resident in shared memory per block: ``2b``."""
        return 2 * self.block_size

    def validate_input_size(self, num_elements: int) -> int:
        """Bitonic sort requires a power-of-two input of at least one tile."""
        num_elements = check_positive_int(num_elements, "num_elements")
        if not is_power_of_two(num_elements) or num_elements < self.tile_size:
            raise ConfigurationError(
                f"bitonic sort needs N = 2^k >= tile {self.tile_size}, "
                f"got {num_elements}"
            )
        return num_elements

    # -- the sort ----------------------------------------------------------

    def sort(self, values: np.ndarray) -> SortResult:
        """Sort ``values``, recording instrumentation per exchange step."""
        arr = np.ascontiguousarray(values).copy()
        n = self.validate_input_size(arr.size)
        result = SortResult(
            values=arr,
            config=_as_config(self),
            num_elements=n,
        )

        idx = np.arange(n, dtype=np.int64)
        log_n = ilog2(n)
        for stage in range(1, log_n + 1):
            size = 1 << stage
            for j in range(stage - 1, -1, -1):
                d = 1 << j
                self._exchange(arr, idx, size, d)
                self._score_step(n, size, d, result)

        result.values = arr
        return result

    @staticmethod
    def _exchange(arr: np.ndarray, idx: np.ndarray, size: int, d: int) -> None:
        """One vectorized compare-exchange step over the whole array."""
        low = (idx & d) == 0
        i = idx[low]
        j = i | d
        ascending = (i & size) == 0
        a, b = arr[i], arr[j]
        swap = (a > b) == ascending
        arr[i] = np.where(swap, b, a)
        arr[j] = np.where(swap, a, b)

    # -- instrumentation -----------------------------------------------------

    def _tile_step_trace(self, d: int) -> np.ndarray:
        """Stacked warp-step address matrix for one shared exchange step of
        one tile (reads; the mirrored writes double the counts)."""
        tile = self.tile_size
        t = np.arange(self.block_size, dtype=np.int64)
        # Thread t's low element: insert a 0 bit at position log2(d).
        i = ((t // d) * (2 * d)) + (t % d)
        matrix = np.vstack([i, i | d])  # two lock-step accesses
        return stack_warp_steps(matrix, self.warp_size)

    def _score_step(self, n: int, size: int, d: int, result: SortResult) -> None:
        tile = self.tile_size
        coalescing = CoalescingModel(self.warp_size)
        if d >= tile:
            # Global step: strided halves, runs of d >= tile >= w words —
            # coalesced read + write of the whole array.
            coalescing.streamed_copy(n)
            coalescing.streamed_copy(n)
            merge_report = ConflictReport.empty(self.warp_size)
            blocks_scored = blocks_total = n // tile
            kind = "global"
        else:
            stacked = self.mitigation.remap(
                self._tile_step_trace(d), self.warp_size
            )
            one_tile = count_conflicts(
                AccessTrace.from_dense(stacked), self.warp_size
            )
            # Reads + writes, identical pattern, across all (identical) tiles.
            merge_report = one_tile.scaled(2 * (n // tile))
            blocks_scored = blocks_total = n // tile
            kind = "block"
            # Tile load/store happen once per *run* of shared steps; charge
            # them on the d == 1 step (end of each stage's shared run).
            if d == 1:
                coalescing.streamed_copy(n)
                coalescing.streamed_copy(n)

        result.rounds.append(
            RoundStats(
                label=f"bitonic-size{size}-d{d}",
                kind=kind,
                run_length=size,
                merge_report=merge_report,
                partition_report=ConflictReport.empty(self.warp_size),
                staging_report=ConflictReport.empty(self.warp_size),
                global_traffic=coalescing.reset(),
                compute_instructions=2 * n // self.warp_size,
                blocks_total=blocks_total,
                blocks_scored=blocks_scored,
            )
        )


def _as_config(sorter: BitonicSort):
    """A SortConfig stand-in so SortResult helpers keep working."""
    from repro.sort.config import SortConfig

    return SortConfig(
        elements_per_thread=2,
        block_size=sorter.block_size,
        warp_size=sorter.warp_size,
        name="bitonic",
    )
