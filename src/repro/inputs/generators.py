"""Named input generators.

Every generator takes ``(config, num_elements, seed)`` — the configuration
matters because the adversarial (and conflict-heavy) inputs are
parameter-specific — and returns an int64 array. The :data:`GENERATORS`
registry maps the names used by the CLI and the bench harness.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ValidationError
from repro.sort.config import SortConfig
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int

__all__ = [
    "GENERATORS",
    "conflict_heavy_input",
    "few_unique_input",
    "generate",
    "pad_to_tiles",
    "random_input",
    "reverse_sorted_input",
    "sawtooth_input",
    "sorted_input",
    "worst_case_input",
]


def random_input(config: SortConfig, num_elements: int, seed=None) -> np.ndarray:
    """A uniform random permutation of ``0 … N−1`` (the paper's baseline)."""
    n = check_positive_int(num_elements, "num_elements")
    return as_generator(seed).permutation(n).astype(np.int64)


def sorted_input(config: SortConfig, num_elements: int, seed=None) -> np.ndarray:
    """Already-sorted keys — the worst case when ``GCD(w, E) = E``."""
    return np.arange(check_positive_int(num_elements, "num_elements"), dtype=np.int64)


def reverse_sorted_input(
    config: SortConfig, num_elements: int, seed=None
) -> np.ndarray:
    """Strictly decreasing keys (maximum inversions)."""
    n = check_positive_int(num_elements, "num_elements")
    return np.arange(n - 1, -1, -1, dtype=np.int64)


def few_unique_input(
    config: SortConfig, num_elements: int, seed=None, num_values: int = 16
) -> np.ndarray:
    """Random keys drawn from a tiny alphabet (stresses tie handling)."""
    n = check_positive_int(num_elements, "num_elements")
    num_values = check_positive_int(num_values, "num_values")
    return as_generator(seed).integers(0, num_values, size=n, dtype=np.int64)


def sawtooth_input(
    config: SortConfig, num_elements: int, seed=None, teeth: int = 8
) -> np.ndarray:
    """``teeth`` ascending runs — a classic partially-sorted workload."""
    n = check_positive_int(num_elements, "num_elements")
    teeth = check_positive_int(teeth, "teeth")
    period = max(1, n // teeth)
    base = np.arange(n, dtype=np.int64) % period
    # Disambiguate equal phases across teeth so keys stay distinct.
    return base * teeth + np.arange(n, dtype=np.int64) // period


def conflict_heavy_input(
    config: SortConfig, num_elements: int, seed=None
) -> np.ndarray:
    """A Karsin et al.-style *conflict-heavy* input.

    Karsin et al. hand-built, per-parameter inputs that cause "a large
    number of bank conflicts" and slow the sorts relative to random inputs,
    without a worst-case guarantee (paper Section II-C). This generator
    reproduces that spirit: a random-looking input whose **last two merge
    rounds** carry the adversarial interleaving — heavy, measurably slower
    than random, but provably short of the full construction; the gap is
    itself a result the benches report.
    """
    from repro.adversary.assignment import construct_warp_assignment
    from repro.adversary.permutation import unmerge_index

    n = config.validate_input_size(num_elements)
    assignment = construct_warp_assignment(config.w, config.E)
    # The cascade's index is the permutation of arange(N) itself.
    return unmerge_index(
        config,
        n,
        assignment,
        target_runs={n // 2, n // 4},
        off_target="random",
        seed=seed,
    ).astype(np.int64, copy=False)


def worst_case_input(
    config: SortConfig, num_elements: int, seed=None
) -> np.ndarray:
    """The paper's constructed worst case (Theorems 3/9) for this config."""
    # Imported lazily: repro.sort's convenience exports pull in this module,
    # and the adversary packages build on repro.sort.
    from repro.adversary.permutation import worst_case_permutation

    return worst_case_permutation(config, num_elements)


def pad_to_tiles(values: np.ndarray, config: SortConfig, pad_value=None) -> np.ndarray:
    """Pad an arbitrary-length input up to the next valid size ``bE·2^k``.

    Padding uses ``pad_value`` (default: one above the maximum, so padding
    sorts to the tail and can be sliced off).
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValidationError(f"values must be 1-D, got shape {values.shape}")
    if values.size == 0:
        raise ValidationError("cannot pad an empty input")
    tile = config.tile_size
    tiles = -(-values.size // tile)
    if tiles & (tiles - 1):
        tiles = 1 << tiles.bit_length()
    target = tiles * tile
    if target == values.size:
        return values.copy()
    if pad_value is None:
        pad_value = values.max() + 1
    out = np.full(target, pad_value, dtype=values.dtype)
    out[: values.size] = values
    return out


GENERATORS: dict[str, Callable[..., np.ndarray]] = {
    "random": random_input,
    "sorted": sorted_input,
    "reverse": reverse_sorted_input,
    "few-unique": few_unique_input,
    "sawtooth": sawtooth_input,
    "conflict-heavy": conflict_heavy_input,
    "worst-case": worst_case_input,
}


def generate(
    name: str, config: SortConfig, num_elements: int, seed=None
) -> np.ndarray:
    """Dispatch to a named generator.

    >>> from repro.sort.config import SortConfig
    >>> cfg = SortConfig(elements_per_thread=3, block_size=8, warp_size=4)
    >>> generate("sorted", cfg, 4).tolist()
    [0, 1, 2, 3]
    """
    try:
        factory = GENERATORS[name]
    except KeyError:
        known = ", ".join(sorted(GENERATORS))
        raise ValidationError(f"unknown generator {name!r}; known: {known}") from None
    return factory(config, num_elements, seed)
