"""Distributed Memory Machine (DMM) model — Section II-B of the paper.

The DMM consists of ``w`` synchronous processors and ``w`` memory modules
(banks). Memory of size ``M`` is viewed as a ``w × ⌈M/w⌉`` matrix: address
``x`` lives in bank ``x mod w``, and contiguous addresses are laid out
column-major. In each time step every processor may issue one request, but a
bank serves one request per cycle — concurrent requests to the *same bank*
serialize (a *bank conflict*), while concurrent reads of the *same address*
broadcast in a single cycle (CREW with broadcast, footnote 1 of the paper).

This package provides:

* :mod:`repro.dmm.banks` — the address ↔ (bank, column) geometry;
* :mod:`repro.dmm.trace` — per-warp access traces (one address per processor
  per lock-step iteration);
* :mod:`repro.dmm.conflicts` — exact, vectorized conflict accounting over a
  trace, exposing all three metrics used in the paper and by Nvidia's
  profilers (serialized transactions, replays, conflict degree);
* :mod:`repro.dmm.machine` — a small CREW DMM interpreter that executes a
  trace step by step and enforces the exclusive-write rule;
* :mod:`repro.dmm.fused` — trace-free counting kernels over rank→address
  rows, the scoring core of every simulated fast path.
"""

from repro.dmm.banks import BankGeometry
from repro.dmm.conflicts import ConflictReport, count_conflicts, report_segments
from repro.dmm.machine import DMM, MemoryImage
from repro.dmm.trace import AccessKind, AccessTrace

__all__ = [
    "AccessKind",
    "AccessTrace",
    "BankGeometry",
    "ConflictReport",
    "count_conflicts",
    "DMM",
    "MemoryImage",
    "report_segments",
]
