"""Dotsenko-style shared-memory padding.

Logical tile index ``a`` is stored at physical address
``a + (a // w) · pad``: every ``w`` contiguous elements, ``pad`` unused
cells are skipped, rotating subsequent columns across banks. With
``GCD(w, w + pad) = ...`` — for the standard ``pad = 1`` — a logical column
walk ``kw, kw+1, …`` maps to banks ``(k + j) mod w``: the column index
enters the bank, so the adversarial "many threads scanning same-bank
columns" pattern spreads across all banks.

The transform is applied to recorded traces *before* scoring (addresses are
logical tile indices everywhere in the simulator), which models a kernel
whose shared arrays are declared with the padded pitch.
"""

from __future__ import annotations

import numpy as np

from repro.mitigation.base import Mitigation
from repro.sort.config import SortConfig
from repro.utils.validation import check_nonnegative_int, check_power_of_two

__all__ = [
    "PaddingMitigation",
    "pad_addresses",
    "padded_shared_bytes",
    "padded_size",
]


def pad_addresses(addresses: np.ndarray, warp_size: int, padding: int) -> np.ndarray:
    """Map logical tile indices to padded physical addresses.

    Negative entries (inactive lanes) pass through unchanged. ``padding=0``
    is the identity.

    >>> import numpy as np
    >>> pad_addresses(np.array([0, 3, 4, 8, -1]), 4, 1).tolist()
    [0, 3, 5, 10, -1]
    """
    warp_size = check_power_of_two(warp_size, "warp_size")
    padding = check_nonnegative_int(padding, "padding")
    addresses = np.asarray(addresses, dtype=np.int64)
    if padding == 0:
        return addresses
    active = addresses >= 0
    out = addresses.copy()
    out[active] += (addresses[active] // warp_size) * padding
    return out


def padded_size(logical_size: int, warp_size: int, padding: int) -> int:
    """Physical elements needed for a padded tile of ``logical_size``."""
    logical_size = check_nonnegative_int(logical_size, "logical_size")
    warp_size = check_power_of_two(warp_size, "warp_size")
    padding = check_nonnegative_int(padding, "padding")
    if logical_size == 0:
        return 0
    last = logical_size - 1
    return int(last + (last // warp_size) * padding) + 1


def padded_shared_bytes(config: SortConfig, padding: int) -> int:
    """Shared-memory footprint of a padded block tile — the occupancy cost
    of the mitigation."""
    return (
        padded_size(config.tile_size, config.warp_size, padding)
        * config.element_bytes
    )


class PaddingMitigation(Mitigation):
    """Registry backend wrapping the module's padding transform.

    ``PaddingMitigation(pad).remap`` equals :func:`pad_addresses`
    (bit-identity with the legacy path is regression-tested in
    ``tests/mitigation/test_matrix_equivalence.py``), and the analytic
    engine already models Dotsenko padding, so the backend stays
    analytic-eligible and keeps the compiled fused kernels in play via
    :attr:`native_padding`.
    """

    name = "padding"
    analytic_supported = True

    def __init__(self, padding: int = 1) -> None:
        self._padding = check_nonnegative_int(padding, "padding")

    @property
    def padding(self) -> int:
        """Dotsenko pad width: skipped cells per ``warp_size`` stride."""
        return self._padding

    @property
    def native_padding(self) -> int:  # type: ignore[override]
        return self._padding

    @property
    def spec(self) -> str:
        return f"padding:{self._padding}"

    def physical(self, addr, lane, warp_size):
        # ``addr // w`` as a shift: ``w`` is a power of two.
        return addr + (addr >> (warp_size.bit_length() - 1)) * self._padding

    def shared_bytes(self, config: SortConfig) -> int:
        return padded_shared_bytes(config, self._padding)

    def describe(self) -> str:
        return f"padding:{self._padding} (Dotsenko co-prime pad)"
