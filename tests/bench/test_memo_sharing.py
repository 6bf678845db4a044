"""Sweeps share no scoring state across points.

The only reuse left in scoring lives inside one sort: the default path
counts each run of adjacent equal tile rows once. A :class:`SweepRunner`
therefore carries nothing from one point to the next, and a sweep —
serial or fanned out over worker processes — must produce the same
``BenchPoint``\\ s as one that counts every row. Pinned to simulated
vectorized scoring: ``"auto"`` routes these constructed families to the
analytic engine, where no tile is counted.
"""

import pytest

from repro.bench.runner import SweepRunner
from repro.engine import execute_items, sweep_items
from repro.gpu.device import QUADRO_M4000
from repro.sort.config import SortConfig
from tests.engine.comparison import counting_every_row, rows_counted

FAMILIES = ("worst-case", "sorted")


@pytest.fixture
def cfg():
    return SortConfig(elements_per_thread=3, block_size=32, warp_size=32)


def make_runner(cfg, **kwargs):
    defaults = dict(
        exact_threshold=cfg.tile_size * 32,
        score_blocks=4,
        seed=0,
        scoring="vectorized",
    )
    defaults.update(kwargs)
    return SweepRunner(cfg, QUADRO_M4000, **defaults)


class TestSweepBitIdentity:
    def test_memoized_sweep_matches_unmemoized(self, cfg):
        sizes = [cfg.tile_size * (1 << k) for k in range(3)]
        for name in FAMILIES:
            memoized = []
            assert rows_counted(
                lambda: memoized.extend(make_runner(cfg).sweep(name, sizes))
            )
            with counting_every_row():
                plain = make_runner(cfg).sweep(name, sizes)
            assert memoized == plain  # BenchPoints are dataclass-equal


class TestParallelMemo:
    def test_parallel_points_match_unmemoized_serial(self, cfg):
        """Workers count each run once; fan-out must still reproduce the
        serial points that count every row."""
        items = sweep_items(
            cfg,
            QUADRO_M4000,
            FAMILIES,
            [cfg.tile_size * 2, cfg.tile_size * 4],
            exact_threshold=cfg.tile_size * 8,
            score_blocks=4,
            scoring="vectorized",
        )
        parallel = execute_items(items, jobs=2)
        with counting_every_row():
            serial_plain = [
                make_runner(cfg, exact_threshold=cfg.tile_size * 8).run_point(
                    item.input_name, item.num_elements
                )
                for item in items
            ]
        assert parallel == serial_plain
