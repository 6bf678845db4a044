"""Benchmark harness: sweeps, slowdown metrics, figure regeneration.

* :mod:`repro.bench.runner` — runs one (config, device, input, N) point
  through the simulator and timing model; large ``N`` beyond the exact
  simulation budget is synthesized from a calibration run (per-round rates
  are N-independent; round counts and global traffic are analytic), which
  is how the harness reaches the paper's 10⁸-element sweep sizes;
* :mod:`repro.bench.cache` — content-addressed on-disk cache for bench
  points and calibration rates (``--cache`` / ``--cache-dir``), making
  repeat figure regeneration near-instant;
* :mod:`repro.bench.metrics` — peak/average slowdown statistics exactly as
  Section IV-B reports them;
* :mod:`repro.bench.figures` — one builder per paper figure (1, 3, 4, 5,
  6) plus the theory-check tables;
* :mod:`repro.bench.ascii_plot` — terminal rendering of series;
* :mod:`repro.bench.report` — markdown emission for EXPERIMENTS.md.
"""

from repro.bench.cache import BenchCache, CacheStats
from repro.bench.metrics import SlowdownStats, slowdown_stats
from repro.bench.runner import BenchPoint, CalibratedRates, SweepRunner

__all__ = [
    "BenchCache",
    "BenchPoint",
    "CacheStats",
    "CalibratedRates",
    "SlowdownStats",
    "SweepRunner",
    "slowdown_stats",
]
