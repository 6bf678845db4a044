"""The identity layout — no mitigation, the paper's attack surface.

Logical tile indices *are* physical addresses, so the constructed
worst-case families hit their full conflict factors. This is the
baseline every matrix row is measured against, and the only backend
whose cost model is exactly ``config.shared_bytes_per_block``.
"""

from __future__ import annotations

from repro.mitigation.base import Mitigation
from repro.sort.config import SortConfig

__all__ = ["NoMitigation"]


class NoMitigation(Mitigation):
    """Identity layout; analytic-eligible; native pad width 0."""

    name = "none"
    analytic_supported = True
    native_padding: int | None = 0

    @property
    def spec(self) -> str:
        return "none"

    def physical(self, addr, lane, warp_size):
        return addr

    def shared_bytes(self, config: SortConfig) -> int:
        return config.shared_bytes_per_block

    def describe(self) -> str:
        return "none (identity layout, full attack surface)"
