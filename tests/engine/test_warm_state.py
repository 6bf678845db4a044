"""Bounded warm state: runner tables and the inline sorter cache."""

import sys
import threading

import pytest

from repro.bench.runner import SweepRunner
from repro.engine import SortTask, WorkItem
from repro.engine import pool as pool_module
from repro.engine import tasks
from repro.engine.inline import InlineEngine
from repro.engine.tasks import RunnerTable
from repro.gpu.device import QUADRO_M4000
from repro.sort.config import SortConfig

CFG = SortConfig(elements_per_thread=3, block_size=32, warp_size=32)


def item(seed: int) -> WorkItem:
    """A point above the exact threshold, so its runner calibrates."""
    return WorkItem(
        config=CFG,
        device=QUADRO_M4000,
        input_name="random",
        num_elements=CFG.tile_size * 8,
        exact_threshold=CFG.tile_size * 2,
        score_blocks=2,
        seed=seed,
        scoring="vectorized",
    )


@pytest.fixture
def calibrations(monkeypatch):
    """Counts calibration sorts, with the table bound lowered to 3."""
    monkeypatch.setattr(tasks, "MAX_RUNNERS", 3)
    calls = []
    original = SweepRunner._calibration_sort

    def counting(self, input_name, n_cal):
        calls.append((self.seed, input_name))
        return original(self, input_name, n_cal)

    monkeypatch.setattr(SweepRunner, "_calibration_sort", counting)
    return calls


class TestRunnerTable:
    def test_engines_share_the_bounded_table(self):
        assert isinstance(InlineEngine()._runners, RunnerTable)
        assert isinstance(pool_module._WORKER_RUNNERS, RunnerTable)

    def test_fresh_seeds_never_exceed_the_bound(self, calibrations):
        engine = InlineEngine()
        for seed in range(8):
            engine.run_points([item(seed)])
            assert len(engine._runners) <= tasks.MAX_RUNNERS
        assert len(engine._runners) == tasks.MAX_RUNNERS
        assert len(calibrations) == 8

    def test_a_repeated_key_keeps_its_runner(self, calibrations):
        engine = InlineEngine()
        engine.run_points([item(0)])
        [runner] = engine._runners.values()
        for seed in range(1, 10):
            # Seed 0 is used between every fresh seed, so it stays among
            # the most recently used runners and never recalibrates.
            engine.run_points([item(seed), item(0)])
            assert len(engine._runners) <= tasks.MAX_RUNNERS
            assert runner in engine._runners.values()
        assert [seed for seed, _ in calibrations].count(0) == 1

    def test_the_least_recently_used_runner_goes_first(self, calibrations):
        engine = InlineEngine()
        for seed in (0, 1, 2, 0, 3):
            engine.run_points([item(seed)])
        seeds = sorted(r.seed for r in engine._runners.values())
        assert seeds == [0, 2, 3]
        engine.run_points([item(1)])
        assert [seed for seed, _ in calibrations] == [0, 1, 2, 3, 1]

    def test_plain_get_and_set(self, monkeypatch):
        monkeypatch.setattr(tasks, "MAX_RUNNERS", 2)
        table = RunnerTable()
        table["a"], table["b"] = 1, 2
        assert table.get("a") == 1  # "a" is now the most recent
        table["c"] = 3
        assert list(table) == ["a", "c"]
        assert table.get("b") is None


    def test_threads_share_one_table(self, monkeypatch):
        """Lookups and stores from many threads never fail and never
        push the table past its bound."""
        monkeypatch.setattr(tasks, "MAX_RUNNERS", 4)
        table = RunnerTable()
        errors = []

        def hammer(offset):
            try:
                for i in range(2000):
                    key = (offset + i) % 7
                    if table.get(key) is None:
                        table[key] = key
                    assert len(table) <= tasks.MAX_RUNNERS
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(k,)) for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(table) == tasks.MAX_RUNNERS


class TestSorterCache:
    @pytest.mark.parametrize(
        "spellings, spec",
        [(("padding", "padding:1"), "padding:1"), (("none", "padding:0"), "none")],
    )
    def test_one_sorter_per_layout(self, spellings, spec):
        engine = InlineEngine(scoring="vectorized")
        results = [
            engine.run_sort(
                SortTask(
                    config=CFG,
                    input_name="random",
                    num_elements=CFG.tile_size * 2,
                    mitigation=spelling,
                )
            )
            for spelling in spellings
        ]
        assert len(engine._sorters) == 1
        [sorter] = engine._sorters.values()
        assert sorter.mitigation.spec == spec
        assert results[0].total_replays() == results[1].total_replays()
