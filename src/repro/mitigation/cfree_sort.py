"""Sitchinava–Weichert bank-conflict-free sorting layout (arXiv:1306.5076).

Their framework restructures shared-memory access so each lane owns a
private bank-aligned column: element ``a`` touched by lane ``j`` is
stored at physical address ``(a // w) · w + j``. Because
``phys mod w == j`` and the ``w`` lanes of a warp step are distinct by
construction, *every* simultaneous warp access lands on ``w`` distinct
banks — zero conflicts for any access pattern, including all of the
paper's constructed worst-case families.

The price is the framework's restructuring cost, which the simulator
models as the bank-aligned pitch: each logical row of ``w`` elements
occupies a full ``w``-element physical row, so a tile of ``T`` elements
needs ``ceil(T / w) · w`` physical cells. (The lane-ownership scheme
also rules out the closed-form analytic model and the compiled padded
kernels — scoring runs through the numpy counting kernels, which apply
the layout explicitly.)

The layout keys off the accessing *lane* only — never a row position —
so scoring a subset of tiles gives the same per-tile counts as scoring
them all, and memo bit-identity holds.
"""

from __future__ import annotations

from repro.mitigation.base import Mitigation
from repro.sort.config import SortConfig

__all__ = ["CFreeSortMitigation", "lane_aligned_physical", "lane_aligned_size"]


def lane_aligned_physical(addr, lane, warp_size: int, pitch_rows: int):
    """Bank = lane layout: ``(a // w) · pitch_rows · w + lane``.

    ``w`` is a power of two, so the row index is a shift (it runs on
    every probe of the counting kernels).
    """
    row = addr >> (warp_size.bit_length() - 1)
    return row * (pitch_rows * warp_size) + lane


def lane_aligned_size(
    logical_size: int, warp_size: int, *, pitch_rows: int = 1
) -> int:
    """Physical cells a lane-aligned tile of ``logical_size`` occupies."""
    if logical_size <= 0:
        return 0
    rows = -(-logical_size // warp_size)
    return rows * pitch_rows * warp_size


class CFreeSortMitigation(Mitigation):
    """Bank = lane layout; conflict-free by construction."""

    name = "cfree-sort"
    analytic_supported = False
    native_padding: int | None = None

    @property
    def spec(self) -> str:
        return "cfree-sort"

    def physical(self, addr, lane, warp_size):
        return lane_aligned_physical(addr, lane, warp_size, pitch_rows=1)

    def shared_bytes(self, config: SortConfig) -> int:
        return (
            lane_aligned_size(
                config.tile_size, config.warp_size, pitch_rows=1
            )
            * config.element_bytes
        )

    def describe(self) -> str:
        return "cfree-sort (Sitchinava–Weichert bank-aligned columns)"
