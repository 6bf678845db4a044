"""Self-verification of constructed inputs.

A downstream user who generates an adversarial input wants a cheap, direct
answer to "is this input actually worst-case for my parameters?" —
independent of the construction code. :func:`verify_worst_case` runs the
input through the instrumented simulator and checks every targeted merge
round against the theorem prediction, returning a structured report (and
the CLI's ``construct``/``simulate`` paths use it as a tripwire).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adversary.interleave import adversarial_rounds
from repro.adversary.theory import aligned_elements
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort

__all__ = [
    "RoundVerdict",
    "VerificationReport",
    "verify_family",
    "verify_worst_case",
]


@dataclass(frozen=True)
class RoundVerdict:
    """One merge round's measured-vs-predicted serialization."""

    label: str
    run_length: int
    targeted: bool
    per_warp_cycles: float
    predicted: int | None

    @property
    def ok(self) -> bool:
        """Whether the round meets its prediction.

        Targeted rounds must reach the theorem count (exactly, for the
        small-``E`` regime where the aligned pile-up provably dominates
        each step; at least, in general). Untargeted rounds carry no claim.
        """
        if not self.targeted or self.predicted is None:
            return True
        return self.per_warp_cycles >= self.predicted - 1e-9


@dataclass
class VerificationReport:
    """Aggregate verdict for one (input, config) pair."""

    config: SortConfig
    num_elements: int
    sorted_correctly: bool
    rounds: list[RoundVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """All checks passed."""
        return self.sorted_correctly and all(r.ok for r in self.rounds)

    @property
    def targeted_rounds(self) -> list[RoundVerdict]:
        """Only the rounds the construction makes claims about."""
        return [r for r in self.rounds if r.targeted]

    def summary(self) -> str:
        """One-line human-readable verdict."""
        targeted = self.targeted_rounds
        hit = sum(1 for r in targeted if r.ok)
        return (
            f"{'OK' if self.ok else 'FAILED'}: sorted={self.sorted_correctly}, "
            f"{hit}/{len(targeted)} targeted rounds at the theorem bound"
        )


def verify_worst_case(
    config: SortConfig,
    values: np.ndarray,
    *,
    score_blocks: int | None = 4,
) -> VerificationReport:
    """Check an input against the worst-case claims for ``config``.

    Runs the instrumented sort and compares every constructible round's
    per-warp serialized merge cycles to the Theorem 3 / Theorem 9
    prediction.

    Examples
    --------
    >>> from repro.sort.config import SortConfig
    >>> from repro.adversary.permutation import worst_case_permutation
    >>> cfg = SortConfig(elements_per_thread=3, block_size=8, warp_size=4)
    >>> n = cfg.tile_size * 4
    >>> report = verify_worst_case(cfg, worst_case_permutation(cfg, n))
    >>> report.ok
    True
    >>> import numpy as np
    >>> verify_worst_case(cfg, np.arange(n)).ok   # sorted input: not worst
    False
    """
    values = np.asarray(values)
    n = config.validate_input_size(values.size)
    result = PairwiseMergeSort(config).sort(
        values, score_blocks=score_blocks
    )
    sorted_ok = bool(np.array_equal(result.values, np.sort(values)))

    try:
        predicted: int | None = aligned_elements(config.w, config.E)
    except Exception:
        predicted = None
    targeted = set(adversarial_rounds(config, n))

    rounds = []
    for r in result.rounds:
        if r.kind == "registers":
            continue
        warps = r.blocks_scored * config.warps_per_block
        rounds.append(
            RoundVerdict(
                label=r.label,
                run_length=r.run_length,
                targeted=r.run_length in targeted,
                per_warp_cycles=r.merge_report.total_transactions / warps,
                predicted=predicted,
            )
        )
    return VerificationReport(
        config=config,
        num_elements=n,
        sorted_correctly=sorted_ok,
        rounds=rounds,
    )


def verify_family(
    config: SortConfig,
    num_elements: int,
    num_members: int,
    *,
    score_blocks: int | None = 4,
    seed: int = 0,
) -> list[VerificationReport]:
    """Verify ``num_members`` random permutation-family members.

    Draws members via :func:`repro.adversary.family.random_family_member`
    (member 0 is the canonical assignment itself) and verifies each.
    """
    from repro.adversary.assignment import construct_warp_assignment
    from repro.adversary.family import random_family_member
    from repro.adversary.permutation import worst_case_permutation
    from repro.utils.validation import check_positive_int

    check_positive_int(num_members, "num_members")
    n = config.validate_input_size(num_elements)
    base = construct_warp_assignment(config.w, config.E)
    reports = []
    for i in range(num_members):
        assignment = (
            base if i == 0 else random_family_member(base, seed=seed + i)
        )
        values = worst_case_permutation(config, n, assignment=assignment)
        reports.append(
            verify_worst_case(config, values, score_blocks=score_blocks)
        )
    return reports
