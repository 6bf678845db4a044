"""Arbitrary-length sorting via pad-and-slice.

The simulator (like the paper's sweeps) wants tidy ``bE·2^k`` inputs;
real callers have whatever they have. This wrapper pads to the next valid
size with above-maximum sentinels (which sort to the tail and are sliced
off), runs the instrumented sort, and rescales the per-element metrics to
the *caller's* element count so instrumentation stays meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.inputs.generators import pad_to_tiles
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort, SortResult

__all__ = ["AnyLengthResult", "sort_any_length"]


@dataclass(frozen=True)
class AnyLengthResult:
    """A ragged-input sort: caller-facing values plus the padded run."""

    values: np.ndarray
    padded_result: SortResult
    num_elements: int
    padded_elements: int

    @property
    def padding_overhead(self) -> float:
        """Padded/requested element ratio (1.0 = no padding needed)."""
        return self.padded_elements / self.num_elements

    def replays_per_element(self) -> float:
        """Conflicts per *caller* element (padding work included — the
        padding really is sorted along, exactly as Thrust's ragged-edge
        handling costs real work)."""
        return self.padded_result.total_replays() / self.num_elements


def sort_any_length(
    values: np.ndarray,
    config: SortConfig,
    *,
    mitigation="none",
    score_blocks: int | None = None,
    seed: int | None = 0,
) -> AnyLengthResult:
    """Sort an arbitrary-length input through the simulator.

    ``mitigation`` selects the shared-memory layout, as for
    :class:`~repro.sort.pairwise.PairwiseMergeSort`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.sort.config import SortConfig
    >>> cfg = SortConfig(elements_per_thread=3, block_size=8, warp_size=4)
    >>> out = sort_any_length(np.array([5, 3, 9, 1, 1]), cfg)
    >>> out.values.tolist()
    [1, 1, 3, 5, 9]
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValidationError(f"values must be 1-D, got shape {values.shape}")
    if values.size == 0:
        raise ValidationError("cannot sort an empty input")

    padded = pad_to_tiles(values, config)
    result = PairwiseMergeSort(config, mitigation=mitigation).sort(
        padded, score_blocks=score_blocks, seed=seed
    )
    return AnyLengthResult(
        values=result.values[: values.size].copy(),
        padded_result=result,
        num_elements=int(values.size),
        padded_elements=int(padded.size),
    )
