"""Closed-form interleaving models for the constructed input families.

The analytic engine (:mod:`repro.analytic.engine`) never simulates a
merge — it needs only, for every round, the *from-A mask*: which output
ranks of a pair the stable merge draws from the first run. For four input
families that mask is known in closed form at every round:

* **sorted** (any non-decreasing input): every run's values precede the
  next run's, so each merge is ``A`` then ``B`` — the sorted interleaving.
* **reverse** (any *strictly* decreasing input): each run's values all
  exceed the next run's, so each merge is ``B`` then ``A``. Strictness
  matters: on equal keys the stable merge takes ``A`` first, which would
  break the all-B-first mask.
* **sawtooth** (the canonical generator with a power-of-two tooth count):
  runs merge whole teeth. While a pair sits inside one tooth the mask is
  sorted; once runs span ``k`` teeth the merged order cycles through the
  ``2k`` teeth of the pair — a periodic mask of period ``2k``.
* **worst-case** (the paper's construction): the mask *is* the round
  interleaving the adversary prescribed —
  :func:`repro.adversary.interleave.round_interleave` verbatim, i.e. the
  ``2wE``-periodic ``L``/``R`` warp pattern on constructible rounds and the
  sorted interleaving elsewhere.

Every round's mask is therefore one of three shapes (:class:`RoundMask`):
sorted, reverse, or periodic with a short period — which is what makes a
whole sort derivable in ``O(rounds)`` arithmetic. All pairs of a round
share one mask, and a global round's blocks fall into at most a handful of
*classes* (period phases), each scored once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import ConstructionError, SimulationError, ValidationError
from repro.sort.config import SortConfig
from repro.utils.bits import is_power_of_two

__all__ = [
    "ANALYTIC_FAMILIES",
    "FamilyModel",
    "RoundMask",
    "analytic_model",
    "detect_model",
    "is_analytic_eligible",
]

#: Input-generator names the analytic engine can score in closed form
#: (subject to per-family eligibility — see :func:`is_analytic_eligible`).
ANALYTIC_FAMILIES = ("sorted", "reverse", "sawtooth", "worst-case")


@dataclass(frozen=True)
class RoundMask:
    """The from-A mask of one merge round, in closed form.

    ``kind`` is ``"sorted"`` (first half ``A``), ``"reverse"`` (second half
    ``A``), or ``"periodic"`` (``period`` tiled across the pair width; its
    length always divides ``2·run``).
    """

    kind: str
    period: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("sorted", "reverse", "periodic"):
            raise ValidationError(f"unknown mask kind {self.kind!r}")
        if (self.period is None) != (self.kind != "periodic"):
            raise ValidationError("period is required iff kind='periodic'")

    @cached_property
    def key(self) -> tuple:
        """Hashable identity of the mask pattern (cache key component)."""
        if self.kind == "periodic":
            return ("periodic", self.period.tobytes())
        return (self.kind,)

    def materialize(self, run: int) -> np.ndarray:
        """The full ``(2·run,)`` bool mask (block rounds only — cheap)."""
        width = 2 * run
        if self.kind == "periodic":
            if width % self.period.size:
                raise SimulationError(
                    f"mask period {self.period.size} does not divide pair "
                    f"width {width}"
                )
            return np.tile(self.period, width // self.period.size)
        mask = np.zeros(width, dtype=bool)
        if self.kind == "sorted":
            mask[:run] = True
        else:
            mask[run:] = True
        return mask

    def block_order(self, run: int) -> np.ndarray:
        """The stable-merge ``order`` row: source index of each output rank.

        Mirrors the simulator's ``argsort`` result: rank ``r`` reads
        ``A``-index ``(#True ≤ r) − 1`` when the mask is set, else ``run +
        (#False ≤ r) − 1``.
        """
        mask = self.materialize(run)
        csum = np.cumsum(mask)
        ranks = np.arange(2 * run, dtype=np.int64)
        return np.where(mask, csum - 1, run + ranks - csum).astype(np.int64)

    # -- global-round class structure ---------------------------------------

    def global_class_of(self, block_in_pair: np.ndarray | int, tile: int, run: int):
        """Class id(s) of the given block position(s) within a pair.

        Periodic masks classify by period phase ``(x·tile) mod P``; the
        sorted/reverse masks split a pair's blocks into an all-A and an
        all-B half (id 1 = the from-A class).
        """
        x = np.asarray(block_in_pair, dtype=np.int64)
        if self.kind == "periodic":
            ids = (x * tile) % self.period.size
        else:
            half = run // tile
            from_a = x < half if self.kind == "sorted" else x >= half
            ids = from_a.astype(np.int64)
        return int(ids) if np.isscalar(block_in_pair) else ids

    def global_geometry(self, class_id: int, tile: int) -> tuple[np.ndarray, int]:
        """``(local_row, na)`` of one class: the tile-local rank→address map
        and the A-window length — everything the conflict scoring of a
        global block depends on (the simulator's
        ``global_block_windows`` derives exactly this pair from the
        block's merge window)."""
        if self.kind != "periodic":
            na = tile if class_id else 0
            return np.arange(tile, dtype=np.int64), na
        p = self.period.size
        window = self.period[(class_id + np.arange(tile, dtype=np.int64)) % p]
        inclusive = np.cumsum(window)
        na = int(inclusive[-1])
        prefix = inclusive - window
        idx = np.arange(tile, dtype=np.int64)
        local = np.where(window, prefix, na + idx - prefix).astype(np.int64)
        return local, na

    def global_pair_plan(self, tile: int, run: int) -> tuple[list[tuple[int, int]], int]:
        """Fold plan of one pair's blocks: ``([(class_id, count)], repeats)``.

        The plan lists class stretches in block order; the whole pair is the
        plan repeated ``repeats`` times. Scaling a fold of the plan by
        ``repeats × num_pairs`` reproduces, bit for bit, the per-step
        sequence of folding every block in round order.
        """
        blocks_per_pair = (2 * run) // tile
        if self.kind != "periodic":
            half = blocks_per_pair // 2
            a_first = self.kind == "sorted"
            return ([(1, half), (0, half)] if a_first else [(0, half), (1, half)]), 1
        p = self.period.size
        cycle = p // math.gcd(tile, p)
        if blocks_per_pair % cycle:
            raise SimulationError(
                f"class cycle {cycle} does not divide blocks-per-pair "
                f"{blocks_per_pair}"
            )
        ids = [int((x * tile) % p) for x in range(cycle)]
        return _run_length(ids), blocks_per_pair // cycle


def _run_length(ids) -> list[tuple[int, int]]:
    """Run-length encode a sequence of class ids (order-preserving)."""
    plan: list[tuple[int, int]] = []
    for i in ids:
        if plan and plan[-1][0] == i:
            plan[-1] = (i, plan[-1][1] + 1)
        else:
            plan.append((int(i), 1))
    return plan


@dataclass
class FamilyModel:
    """One analytic-eligible input bound to a configuration and size.

    ``round_mask(run)`` yields the closed-form from-A mask of the round
    merging runs of length ``run``; ``output_values()`` is the sorted
    output (without running a sort).
    """

    name: str
    config: SortConfig
    num_elements: int
    #: For data-backed models (sorted/reverse detection), the original
    #: input; ``None`` for the canonical generator outputs.
    data: np.ndarray | None = field(default=None, repr=False)

    def round_mask(self, run: int) -> RoundMask:
        raise NotImplementedError

    def output_values(self) -> np.ndarray:
        """The sorted result (canonical families are permutations of
        ``0 … N−1``)."""
        return np.arange(self.num_elements, dtype=np.int64)


class SortedModel(FamilyModel):
    """Any non-decreasing input: every round's mask is the sorted one."""

    _MASK = RoundMask("sorted")

    def round_mask(self, run: int) -> RoundMask:
        return self._MASK

    def output_values(self) -> np.ndarray:
        if self.data is not None:
            return np.ascontiguousarray(self.data).copy()
        return super().output_values()


class ReverseModel(FamilyModel):
    """Any strictly decreasing input: every round's mask is all-B-first."""

    _MASK = RoundMask("reverse")

    def round_mask(self, run: int) -> RoundMask:
        return self._MASK

    def output_values(self) -> np.ndarray:
        if self.data is not None:
            return np.ascontiguousarray(self.data)[::-1].copy()
        return super().output_values()


class SawtoothModel(FamilyModel):
    """The canonical sawtooth generator output (power-of-two teeth).

    Tooth ``m`` holds values ``{j·teeth + m}``, so a sorted run spanning
    ``k`` whole teeth lists them round-robin; merging two such runs cycles
    through ``2k`` teeth — mask ``(r mod 2k) < k``. While ``2·run`` still
    fits inside one tooth the merge is benign (sorted mask). Eligibility
    (``teeth | N``, tooth period a tile multiple) keeps every round in
    exactly one of the two regimes.
    """

    def __init__(self, config: SortConfig, num_elements: int, teeth: int = 8):
        super().__init__("sawtooth", config, num_elements)
        if not _sawtooth_eligible(config, num_elements, teeth):
            raise ValidationError(
                f"sawtooth(N={num_elements}, teeth={teeth}) is not "
                f"analytic-eligible for tile {config.tile_size}: need a "
                f"power-of-two tooth count and a tooth period that is a "
                f"multiple of the tile"
            )
        self.teeth = teeth
        self.tooth_period = num_elements // teeth
        self._masks: dict[int, RoundMask] = {}

    def round_mask(self, run: int) -> RoundMask:
        if 2 * run <= self.tooth_period:
            return SortedModel._MASK
        k = run // self.tooth_period
        mask = self._masks.get(k)
        if mask is None:
            mask = self._masks[k] = RoundMask("periodic", np.arange(2 * k) < k)
        return mask


class AdversarialModel(FamilyModel):
    """The paper's constructed worst case: the mask is the prescribed
    round interleaving (``L``/``R`` warp pattern on constructible rounds,
    sorted elsewhere) — the same pattern
    :func:`~repro.adversary.permutation.worst_case_permutation` un-merges
    through."""

    def __init__(self, config: SortConfig, num_elements: int):
        from repro.adversary.assignment import construct_warp_assignment

        super().__init__("worst-case", config, num_elements)
        assignment = construct_warp_assignment(config.w, config.E)
        self._periodic = RoundMask(
            "periodic",
            np.concatenate(
                [assignment.interleaving(), assignment.mirrored().interleaving()]
            ),
        )

    def round_mask(self, run: int) -> RoundMask:
        cfg = self.config
        if run % cfg.w or run < cfg.w * cfg.E:
            return SortedModel._MASK
        return self._periodic


def _sawtooth_eligible(config: SortConfig, n: int, teeth: int = 8) -> bool:
    """Tooth boundaries must align with every run window: power-of-two
    teeth, ``teeth | N``, and a tooth period that is a whole number of
    tiles (equivalently ``N ≥ teeth·bE`` for valid sizes)."""
    if not is_power_of_two(teeth) or n % teeth:
        return False
    return (n // teeth) % config.tile_size == 0


def analytic_model(
    input_name: str, config: SortConfig, num_elements: int
) -> FamilyModel:
    """Model for a named generator, or raise :class:`ValidationError`.

    The model describes the *canonical* generator output (default
    parameters); results are bit-identical to simulating
    ``generate(input_name, config, num_elements)``.
    """
    n = config.validate_input_size(num_elements)
    if input_name == "sorted":
        return SortedModel("sorted", config, n)
    if input_name == "reverse":
        return ReverseModel("reverse", config, n)
    if input_name == "sawtooth":
        return SawtoothModel(config, n)
    if input_name == "worst-case":
        try:
            return AdversarialModel(config, n)
        except ConstructionError as exc:
            raise ValidationError(
                f"worst-case is not analytic-eligible for w={config.w}, "
                f"E={config.E}: {exc}"
            ) from exc
    raise ValidationError(
        f"input {input_name!r} has no closed-form model; analytic-eligible "
        f"families: {', '.join(ANALYTIC_FAMILIES)}"
    )


def is_analytic_eligible(
    input_name: str, config: SortConfig, num_elements: int
) -> bool:
    """Whether ``(input_name, config, num_elements)`` has a closed form."""
    if input_name not in ANALYTIC_FAMILIES:
        return False
    try:
        analytic_model(input_name, config, num_elements)
    except Exception:
        return False
    return True


def detect_model(values: np.ndarray, config: SortConfig) -> FamilyModel:
    """Recognize an input array as an analytic-eligible family.

    Monotone inputs are recognized structurally (any non-decreasing input
    is ``sorted``-shaped; any strictly decreasing one ``reverse``-shaped);
    the sawtooth and worst-case families are recognized by equality with
    their canonical generator outputs. Anything else raises
    :class:`ValidationError` — the analytic path never guesses.
    """
    values = np.ascontiguousarray(values)
    n = config.validate_input_size(values.size)
    diffs = np.diff(values)
    if values.size == 1 or bool(np.all(diffs >= 0)):
        return SortedModel("sorted", config, n, data=values)
    if bool(np.all(diffs < 0)):
        return ReverseModel("reverse", config, n, data=values)
    if _sawtooth_eligible(config, n):
        from repro.inputs.generators import sawtooth_input

        if np.array_equal(values, sawtooth_input(config, n)):
            return SawtoothModel(config, n)
    try:
        model = AdversarialModel(config, n)
    except ConstructionError:
        model = None
    if model is not None:
        from repro.adversary.permutation import worst_case_permutation

        if np.array_equal(values, worst_case_permutation(config, n)):
            return model
    raise ValidationError(
        "analytic scoring requires a recognized constructed family "
        "(sorted / reverse / canonical sawtooth / worst-case); this input "
        "matches none — use scoring='vectorized'"
    )
