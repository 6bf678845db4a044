"""Per-warp assignments: the bridge from proofs to permutations.

A *warp assignment* records, for each of the ``w`` threads of one warp
merging lists ``A`` and ``B``:

* ``(a_i, b_i)`` — how many of its ``E`` elements come from each list
  (``a_i + b_i = E``), and
* whether it scans its ``A`` chunk or its ``B`` chunk first
  (each thread scans one list then the other — Section III's
  "General Strategy").

Because threads consume both lists in order, an assignment fully determines
the warp's merge **interleaving** (the ``{A, B}``-string over its ``wE``
output ranks), and therefore — given that the warp's ``A`` and ``B`` slices
both start at bank 0 — the exact shared-memory bank every element is read
from at every lock-step iteration. That is everything the conflict analysis
needs, and everything the input generator needs.

The read-order bits are chosen per thread to maximize that thread's aligned
accesses (alignment is a per-thread property once the tuples are fixed, so
the greedy choice is optimal for a given tuple sequence); tests verify the
resulting totals match Theorems 3 and 9 exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConstructionError, ValidationError
from repro.utils.validation import check_positive_int, check_power_of_two

__all__ = ["WarpAssignment", "construct_warp_assignment"]


@dataclass(frozen=True)
class WarpAssignment:
    """One warp's thread-to-list assignment for a pairwise merge.

    Attributes
    ----------
    warp_size:
        Threads per warp ``w`` (= banks).
    elements_per_thread:
        The paper's ``E``.
    tuples:
        ``w`` pairs ``(a_i, b_i)`` with ``a_i + b_i = E``.
    a_first:
        ``w`` booleans: whether thread ``i`` scans its ``A`` chunk first.
    target_bank:
        The start bank ``s`` of the ``E`` consecutive banks the construction
        aligns to (0 for small ``E``, ``r`` for large ``E``); recorded for
        rendering and verification.
    """

    warp_size: int
    elements_per_thread: int
    tuples: tuple[tuple[int, int], ...]
    a_first: tuple[bool, ...]
    target_bank: int = 0

    def __post_init__(self) -> None:
        w = check_power_of_two(self.warp_size, "warp_size")
        e = check_positive_int(self.elements_per_thread, "elements_per_thread")
        if len(self.tuples) != w:
            raise ValidationError(
                f"expected {w} thread tuples, got {len(self.tuples)}"
            )
        if len(self.a_first) != w:
            raise ValidationError(
                f"expected {w} read-order flags, got {len(self.a_first)}"
            )
        for i, (a, b) in enumerate(self.tuples):
            if a < 0 or b < 0 or a + b != e:
                raise ValidationError(
                    f"thread {i} tuple ({a}, {b}) must be nonnegative and "
                    f"sum to E={e}"
                )
        if not 0 <= self.target_bank < w:
            raise ValidationError(
                f"target_bank must be in [0, {w}), got {self.target_bank}"
            )

    # -- sizes -------------------------------------------------------------

    @property
    def w(self) -> int:  # noqa: N802 - paper notation
        """Warp width."""
        return self.warp_size

    @property
    def e(self) -> int:
        """Elements per thread."""
        return self.elements_per_thread

    @property
    def num_a(self) -> int:
        """Warp total taken from the ``A`` list."""
        return sum(a for a, _ in self.tuples)

    @property
    def num_b(self) -> int:
        """Warp total taken from the ``B`` list."""
        return sum(b for _, b in self.tuples)

    # -- derived structure ---------------------------------------------------

    def interleaving(self) -> np.ndarray:
        """The warp's merge interleaving (length ``wE``; ``True`` = from A)."""
        out = np.empty(self.w * self.e, dtype=bool)
        pos = 0
        for (a, b), first_a in zip(self.tuples, self.a_first):
            if first_a:
                out[pos : pos + a] = True
                out[pos + a : pos + a + b] = False
            else:
                out[pos : pos + b] = False
                out[pos + b : pos + b + a] = True
            pos += self.e
        return out

    def step_banks(self) -> np.ndarray:
        """Bank accessed by each thread at each merge step.

        Returns an ``(E, w)`` matrix: entry ``(j, i)`` is the bank thread
        ``i`` touches at lock-step iteration ``j``, assuming the warp's
        ``A`` and ``B`` slices both start at bank 0 (the layout the
        construction engineers, see DESIGN.md §4).
        """
        banks = np.empty((self.e, self.w), dtype=np.int64)
        cum_a = 0
        cum_b = 0
        for i, ((a, b), first_a) in enumerate(zip(self.tuples, self.a_first)):
            a_banks = (cum_a + np.arange(a)) % self.w
            b_banks = (cum_b + np.arange(b)) % self.w
            seq = (
                np.concatenate([a_banks, b_banks])
                if first_a
                else np.concatenate([b_banks, a_banks])
            )
            banks[:, i] = seq
            cum_a += a
            cum_b += b
        return banks

    def aligned_count(self, target_bank: int | None = None) -> int:
        """Number of aligned accesses: step ``j`` touching bank ``s + j``.

        Uses :attr:`target_bank` unless overridden. This is the paper's
        "aligned elements" metric, computed directly from the assignment
        (independently of the trace-based measurement in
        :mod:`repro.adversary.metrics`, which tests cross-check it against).
        """
        s = self.target_bank if target_bank is None else target_bank
        banks = self.step_banks()
        steps = (np.arange(self.e, dtype=np.int64) + s) % self.w
        return int((banks == steps[:, None]).sum())

    def best_aligned_count(self) -> tuple[int, int]:
        """``(count, s)`` maximizing alignment over all start banks ``s``."""
        best = (-1, 0)
        for s in range(self.w):
            count = self.aligned_count(s)
            if count > best[0]:
                best = (count, s)
        return best

    def mirrored(self) -> "WarpAssignment":
        """The symmetric assignment with ``A`` and ``B`` swapped.

        The construction assigns warps in the set ``L`` the original
        assignment and warps in ``R`` the mirrored one, so each thread
        block consumes ``bE/2`` elements from each list.
        """
        return WarpAssignment(
            warp_size=self.w,
            elements_per_thread=self.e,
            tuples=tuple((b, a) for a, b in self.tuples),
            a_first=tuple(not f for f in self.a_first),
            target_bank=self.target_bank,
        )

    def bank_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Figure 1/3-style rendering data.

        Returns two ``(w, columns)`` matrices — one for the warp's ``A``
        slice, one for ``B`` — whose entries are the *thread id* that reads
        each element (−1 for cells past the end of the list). Row ``i`` is
        bank ``i``, matching the figures in the paper.
        """
        return (
            _owner_matrix(self.w, [a for a, _ in self.tuples]),
            _owner_matrix(self.w, [b for _, b in self.tuples]),
        )


def _owner_matrix(w: int, counts: list[int]) -> np.ndarray:
    """Bank-major matrix of thread ownership for one list."""
    total = sum(counts)
    owners = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    cols = -(-total // w) if total else 0
    grid = np.full(cols * w, -1, dtype=np.int64)
    grid[:total] = owners
    return grid.reshape(cols, w).T


def greedy_read_order(
    w: int, e: int, tuples: list[tuple[int, int]], target_bank: int
) -> tuple[bool, ...]:
    """Choose each thread's scan order to maximize its aligned accesses.

    Alignment of a thread's accesses depends only on its own chunk
    positions (fixed by the cumulative tuple sums) and its read order, so
    per-thread greedy choice is globally optimal for the given tuples.
    Ties prefer scanning ``A`` first.
    """
    flags: list[bool] = []
    cum_a = 0
    cum_b = 0
    for a, b in tuples:
        a_banks = (cum_a + np.arange(a)) % w
        b_banks = (cum_b + np.arange(b)) % w
        # A first: A chunk at steps 0..a−1, B at steps a..E−1.
        steps_first = (np.arange(a) + target_bank) % w
        steps_second = (np.arange(a, a + b) + target_bank) % w
        score_a_first = int((a_banks == steps_first).sum()) + int(
            (b_banks == steps_second).sum()
        )
        steps_first_b = (np.arange(b) + target_bank) % w
        steps_second_b = (np.arange(b, b + a) + target_bank) % w
        score_b_first = int((b_banks == steps_first_b).sum()) + int(
            (a_banks == steps_second_b).sum()
        )
        flags.append(score_a_first >= score_b_first)
        cum_a += a
        cum_b += b
    return tuple(flags)


@functools.lru_cache(maxsize=256)
def construct_warp_assignment(w: int, e: int) -> WarpAssignment:
    """Dispatch to the right construction for ``(w, E)``.

    Memoized: a :class:`WarpAssignment` is frozen, so callers share one
    instance per ``(w, E)``. Failures are not cached — a
    :class:`ConstructionError` is raised afresh on every call.

    * ``GCD(w, E) = E`` (``E`` a power of two ≤ ``w``) → sorted order is
      worst-case (:mod:`repro.adversary.power2`);
    * ``GCD(w, E) = 1``, ``E < w/2`` → Theorem 3
      (:mod:`repro.adversary.small_e`);
    * ``GCD(w, E) = 1``, ``w/2 < E < w`` → Theorem 9
      (:mod:`repro.adversary.large_e`).

    Raises
    ------
    ConstructionError
        For ``E ≥ w`` or ``1 < GCD(w, E) < E``, which the paper's theorems
        do not cover (callers can fall back to sorted order, whose partial
        alignment :func:`repro.adversary.power2.sorted_aligned_count`
        quantifies).
    """
    w = check_power_of_two(w, "w")
    e = check_positive_int(e, "E")
    from repro.adversary.large_e import large_e_assignment
    from repro.adversary.power2 import power_of_two_assignment
    from repro.adversary.small_e import small_e_assignment

    d = math.gcd(w, e)
    if d == e and 1 < e <= w:
        return power_of_two_assignment(w, e)
    if d != 1:
        raise ConstructionError(
            f"no exact construction for GCD(w={w}, E={e}) = {d}; the paper "
            f"covers GCD 1 (Theorems 3/9) and GCD = E (sorted order)"
        )
    if e >= w:
        raise ConstructionError(
            f"the construction requires E < w, got E={e}, w={w}"
        )
    if e < w // 2:
        return small_e_assignment(w, e)
    return large_e_assignment(w, e)
