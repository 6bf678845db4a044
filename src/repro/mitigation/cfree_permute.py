"""Afshani–Sitchinava conflict-free permuting layout (arXiv:1507.01391).

Their result: any permutation can be realized in shared memory without
bank conflicts by staging it through a double-buffered, bank-aligned
scratch layout. The simulator models the data layout that makes the
permutation conflict-free: lane ``j`` owns a bank-aligned column in a
*double-pitch* buffer — element ``a`` lands at
``(a // w) · 2w + j`` — so reads drain one half-row while writes fill
the other, and every simultaneous warp access still touches ``w``
distinct banks (``phys mod w == j``). Zero conflicts for any access
pattern, same as :mod:`repro.mitigation.cfree_sort`, but at twice the
shared-memory pitch: a tile of ``T`` elements costs
``ceil(T / w) · 2w`` physical cells, which is the occupancy price the
matrix experiment charges this backend.

Like the cfree-sort layout, it keys off the accessing lane only — stable
under the memoized path's tile-subset scoring — and is outside both the
analytic model and the compiled padded kernels.
"""

from __future__ import annotations

from repro.mitigation.base import Mitigation
from repro.mitigation.cfree_sort import lane_aligned_physical, lane_aligned_size
from repro.sort.config import SortConfig

__all__ = ["CFreePermuteMitigation"]


class CFreePermuteMitigation(Mitigation):
    """Double-pitch bank = lane layout; conflict-free permuting."""

    name = "cfree-permute"
    analytic_supported = False
    native_padding: int | None = None

    @property
    def spec(self) -> str:
        return "cfree-permute"

    def physical(self, addr, lane, warp_size):
        return lane_aligned_physical(addr, lane, warp_size, pitch_rows=2)

    def shared_bytes(self, config: SortConfig) -> int:
        return (
            lane_aligned_size(
                config.tile_size, config.warp_size, pitch_rows=2
            )
            * config.element_bytes
        )

    def describe(self) -> str:
        return "cfree-permute (Afshani–Sitchinava double-buffered columns)"
