"""From per-round interleavings to the actual worst-case input permutation.

The sort's merge tree is fixed by ``(N, E, b)``: runs of ``E`` (after the
register phase) double through block rounds to ``bE`` and through global
rounds to ``N``. The adversary prescribes the interleaving of every
constructible round; running every merge *backwards* from the sorted output
(:func:`repro.mergepath.serial_merge.unmerge`) then yields an initial
permutation that reproduces exactly those interleavings when sorted —
because keys are distinct, a stable merge of the two un-merged halves
regenerates the prescribed interleaving verbatim.

The resulting permutation is periodic with the block's pattern at every
round, which is what makes the sampled fast path of
:class:`~repro.sort.pairwise.PairwiseMergeSort` exact on these inputs.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.assignment import WarpAssignment, construct_warp_assignment
from repro.adversary.interleave import round_interleave
from repro.errors import ValidationError
from repro.sort.config import SortConfig

__all__ = ["unmerge_through_rounds", "worst_case_permutation"]


def worst_case_permutation(
    config: SortConfig,
    num_elements: int,
    *,
    assignment: WarpAssignment | None = None,
    values: np.ndarray | None = None,
) -> np.ndarray:
    """Construct the worst-case input for a configuration and size.

    Parameters
    ----------
    config:
        The sort parameters the input targets. The adversarial effect is
        parameter-specific: an input constructed for ``(E=15, b=512)``
        is not worst-case for ``(E=17, b=256)`` (the paper evaluates each
        preset on its own constructed inputs).
    num_elements:
        Input size; must be ``bE · 2^k`` (the paper's sweep sizes all are).
    assignment:
        Optionally override the per-warp assignment (used by
        :mod:`repro.adversary.family` to generate permutation families).
    values:
        Optionally, the sorted key array to permute (default
        ``arange(N)``); must be strictly increasing so merges reproduce the
        prescribed interleavings exactly.

    Returns
    -------
    The adversarial input permutation (a new array).

    Examples
    --------
    >>> from repro.sort.config import SortConfig
    >>> cfg = SortConfig(elements_per_thread=3, block_size=8, warp_size=4)
    >>> perm = worst_case_permutation(cfg, cfg.tile_size * 4)
    >>> sorted(perm.tolist()) == list(range(cfg.tile_size * 4))
    True
    """
    n = config.validate_input_size(num_elements)
    if assignment is None:
        assignment = construct_warp_assignment(config.w, config.E)
    if values is None:
        values = np.arange(n, dtype=np.int64)
    else:
        values = np.asarray(values)
        if values.shape != (n,):
            raise ValidationError(
                f"values must have shape ({n},), got {values.shape}"
            )
        if values.size > 1 and np.any(values[1:] <= values[:-1]):
            raise ValidationError("values must be strictly increasing")
    return unmerge_through_rounds(config, values, assignment)


def unmerge_through_rounds(
    config: SortConfig,
    sorted_values: np.ndarray,
    assignment: WarpAssignment,
    target_runs: set[int] | None = None,
    off_target: str = "sorted",
    seed=0,
) -> np.ndarray:
    """Apply the un-merge cascade from run length ``N`` down to ``E``.

    At each level, every merged run of length ``2L`` is split into its two
    pre-merge halves (``A`` in the first ``L`` slots, ``B`` in the second —
    the in-memory layout the next-lower round reads). All pairs of a level
    share one interleaving pattern ``p``, so the level applies the same
    window-local gather ``idx_L = concat(flatnonzero(p), flatnonzero(~p))``
    to every ``2L`` window, and the levels below act identically on both
    halves of it. The whole cascade is therefore one window-local index,
    composed bottom-up as ``q ← idx_L[concat(q, q + L)]`` — ``O(N)`` work in
    total, since level ``L`` touches ``2L`` entries — and one gather of the
    values at the end: a value-independent position permutation.

    ``target_runs`` restricts the adversarial interleaving to specific run
    lengths — this is how partial adversaries like the Karsin-style
    conflict-heavy inputs, which attack only chosen rounds, are built.
    ``None`` targets every constructible round (the paper's full
    construction). Untargeted rounds use ``off_target`` interleavings:
    ``"sorted"`` (benign, the default) or ``"random"`` (each pair a uniform
    random balanced interleaving, seeded by ``seed`` — making the input
    look random except where attacked). Any other value is rejected — a
    typo must not silently produce the benign input.
    """
    from repro.adversary.interleave import sorted_interleave
    from repro.utils.rng import as_generator

    if off_target not in ("sorted", "random"):
        raise ValidationError(
            f"off_target must be 'sorted' or 'random', got {off_target!r}"
        )
    rng = as_generator(seed)
    values = np.asarray(sorted_values).reshape(-1)
    n = values.size
    # Patterns are drawn top-down (largest run first), which keeps the
    # order of the "random" off-target draws; composition runs bottom-up.
    patterns: list[np.ndarray] = []
    run = n // 2
    while run >= config.E:
        if target_runs is None or run in target_runs:
            pattern = round_interleave(config, run, assignment)
        elif off_target == "random":
            pattern = np.zeros(2 * run, dtype=bool)
            pattern[rng.choice(2 * run, size=run, replace=False)] = True
        else:
            pattern = sorted_interleave(2 * run)
        patterns.append(pattern)
        run //= 2
    if not patterns:
        return values.copy()
    if patterns[0].size != n or any(
        upper.size != 2 * lower.size for upper, lower in zip(patterns, patterns[1:])
    ):
        raise ValidationError(
            f"{n} elements do not halve into runs of E={config.E}; "
            "the cascade needs N = E·2^k"
        )

    # The window-local index ``q`` grows in place from 2E to N entries of
    # one buffer. Each level's pattern is balanced (L slots from each run),
    # so idx_L[q] = flatnonzero(p)[q] and idx_L[q + L] = flatnonzero(~p)[q]:
    # the upper half is written first, then the lower half overwrites q.
    # ``np.take`` reads each index before writing its slot, and
    # mode="clip" (indices are in range by construction) makes it write
    # ``out`` directly instead of through a temporary.
    composed = np.empty(n, dtype=np.intp)
    lowest = patterns[-1].size // 2
    composed[:lowest] = np.arange(lowest)
    for pattern in reversed(patterns):
        half = pattern.size // 2
        q = composed[:half]
        upper = composed[half : pattern.size]
        np.take(np.flatnonzero(~pattern), q, out=upper, mode="clip")
        np.take(np.flatnonzero(pattern), q, out=q, mode="clip")
    if values.dtype == composed.dtype:
        # The one gather of the values can reuse the index buffer too.
        return np.take(values, composed, out=composed, mode="clip")
    return values.take(composed)
