"""The :class:`Mitigation` contract every defense backend implements.

A mitigation is a *shared-memory layout policy*: it decides where each
logical tile index physically lands (and therefore which bank services
it) plus what the layout costs in shared-memory footprint. The simulator
records logical tile indices everywhere; a mitigation's
:meth:`physical` map is applied to them *before* conflict scoring,
exactly where ``pad_addresses`` used to be hard-wired.

The contract has four load-bearing pieces:

``physical(addr, lane, warp_size)``
    The layout itself, elementwise: the physical address of logical
    tile index ``addr`` when warp lane ``lane`` accesses it (both
    nonnegative, broadcastable). Lane-aware schemes (the cfree
    backends) key off the lane, never off a row position, so scoring a
    subset of tiles gives the same per-tile counts as scoring them all —
    sampled rounds and the adjacent-run dedup rely on that. Within one warp step, distinct
    logical addresses must land on distinct physical addresses (the
    per-tile merge counting kernel needs no broadcast dedup because of
    it). :meth:`Mitigation.remap` derives the dense-matrix form from it,
    so each layout is defined once.

``shared_bytes(config)``
    Physical shared-memory footprint of one block tile under the
    layout. This is the occupancy side of the trade-off: it feeds
    :func:`repro.gpu.occupancy.occupancy` through
    :class:`~repro.bench.runner.SweepRunner`.

``analytic_supported``
    Whether the closed-form analytic engine models this layout.
    ``scoring="analytic"`` with an unsupported mitigation is a typed
    :class:`~repro.errors.ValidationError` — matrix cells must never
    report closed-form numbers for layouts the model doesn't cover.

``native_padding``
    ``int`` when the layout is expressible as Dotsenko padding (``0``
    for ``none``), which keeps the compiled fused kernels eligible;
    ``None`` forces the numpy fused path, whose counting kernels apply
    :meth:`physical` explicitly.

Backends are summoned by spec string (``"none"``, ``"padding:1"``,
``"cfree-sort"``, ``"cfree-permute"``) via
:func:`~repro.mitigation.registry.create_mitigation`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.sort.config import SortConfig

__all__ = ["Mitigation"]


class Mitigation(ABC):
    """Shared-memory layout policy: address remap + cost model.

    Instances must be immutable, hashable, and picklable — they ride
    inside sorter-cache keys, frozen work items, and pool workers. The
    canonical :attr:`spec` string is the wire/fingerprint form; two
    instances with equal specs must behave identically.
    """

    #: Registry name of the backend family (``"padding"`` for every pad
    #: width); :attr:`spec` is the fully-parameterized form.
    name: str = "mitigation"

    #: Whether the closed-form analytic engine models this layout.
    analytic_supported: bool = False

    #: Dotsenko pad width when the layout is plain padding (``0`` means
    #: the identity layout), else ``None`` — which routes fused scoring
    #: to the numpy path so the layout is applied explicitly.
    native_padding: int | None = None

    @property
    @abstractmethod
    def spec(self) -> str:
        """Canonical spec string (``"padding:2"``), used in cache
        keys, wire payloads, and CLI output."""

    @abstractmethod
    def physical(
        self, addr: np.ndarray, lane: np.ndarray, warp_size: int
    ) -> np.ndarray:
        """Physical address of logical tile index ``addr`` as accessed by
        warp lane ``lane`` (elementwise, nonnegative, broadcastable)."""

    def remap(self, dense: np.ndarray, warp_size: int) -> np.ndarray:
        """Physical addresses for a dense ``(..., warp_size)`` logical
        step matrix whose trailing axis is the lane; negative
        (inactive-lane) entries pass through."""
        dense = np.asarray(dense, dtype=np.int64)
        if dense.shape[-1] != warp_size:
            raise ValueError(
                "remap needs dense (..., warp_size) matrices: got trailing "
                f"axis {dense.shape[-1]} for warp_size {warp_size}"
            )
        lanes = np.arange(warp_size, dtype=np.int64)
        return np.where(
            dense >= 0, self.physical(dense, lanes, warp_size), dense
        )

    @abstractmethod
    def shared_bytes(self, config: SortConfig) -> int:
        """Physical shared-memory bytes one block tile occupies."""

    # -- uniform plumbing ----------------------------------------------

    def describe(self) -> str:
        """One human-readable line for tables and ``--help`` text."""
        return self.spec

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(spec={self.spec!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mitigation):
            return NotImplemented
        return self.spec == other.spec

    def __hash__(self) -> int:
        return hash((type(self).__module__, "mitigation", self.spec))
