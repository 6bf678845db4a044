"""Tests for the sweep executor — above all, that fan-out over a process
pool changes nothing about the results. The executor now lives in
``repro.engine`` (``execute_items`` routes serial work to the shared
inline engine and ``--jobs``/external-pool work to a pool engine)."""

import dataclasses

import pytest

from repro.bench.cache import BenchCache
from repro.engine import (
    ProgressEvent,
    WorkItem,
    cache_ref,
    execute_items,
    sweep_items,
)
from repro.bench.runner import SweepRunner
from repro.errors import ValidationError
from repro.gpu.device import QUADRO_M4000
from repro.sort.config import SortConfig


@pytest.fixture
def cfg():
    return SortConfig(elements_per_thread=3, block_size=32, warp_size=32)


def make_items(cfg, sizes, *, input_names=("random", "worst-case"), **kwargs):
    defaults = dict(
        exact_threshold=cfg.tile_size * 8,
        score_blocks=4,
        seed=0,
    )
    defaults.update(kwargs)
    return sweep_items(cfg, QUADRO_M4000, input_names, sizes, **defaults)


class TestWorkItem:
    def test_picklable(self, cfg):
        import pickle

        item = make_items(cfg, [cfg.tile_size * 2])[0]
        assert pickle.loads(pickle.dumps(item)) == item

    def test_describe_names_the_point(self, cfg):
        item = make_items(cfg, [cfg.tile_size * 2])[0]
        text = item.describe()
        assert "random" in text
        assert QUADRO_M4000.name in text
        assert f"{cfg.tile_size * 2:,}" in text

    def test_sweep_items_order(self, cfg):
        sizes = [cfg.tile_size * 2, cfg.tile_size * 4]
        items = make_items(cfg, sizes)
        assert [(i.input_name, i.num_elements) for i in items] == [
            ("random", sizes[0]),
            ("random", sizes[1]),
            ("worst-case", sizes[0]),
            ("worst-case", sizes[1]),
        ]

    def test_cache_ref(self, tmp_path):
        assert cache_ref(None) == (None, False)
        assert cache_ref(BenchCache(tmp_path)) == (str(tmp_path), True)


class TestSerialExecution:
    def test_matches_sweep_runner(self, cfg):
        sizes = cfg.valid_sizes(cfg.tile_size * 32)
        runner = SweepRunner(
            cfg, QUADRO_M4000, exact_threshold=cfg.tile_size * 8,
            score_blocks=4, seed=0,
        )
        expected = runner.sweep("worst-case", sizes)
        got = execute_items(make_items(cfg, sizes, input_names=("worst-case",)))
        assert got == expected

    def test_jobs_below_one_rejected(self, cfg):
        with pytest.raises(ValidationError):
            execute_items(make_items(cfg, [cfg.tile_size * 2]), jobs=0)

    def test_empty_items(self):
        assert execute_items([]) == []
        assert execute_items([], jobs=4) == []


class TestParallelMatchesSerial:
    def test_bit_identical_points(self, cfg):
        """The acceptance criterion: --jobs N must not change any result.
        Sizes cover both the exact and the synthesized path."""
        sizes = cfg.valid_sizes(cfg.tile_size * 64)
        items = make_items(cfg, sizes)
        serial = execute_items(items, jobs=1)
        parallel = execute_items(items, jobs=2)
        assert parallel == serial

    def test_parallel_with_shared_cache(self, cfg, tmp_path):
        sizes = cfg.valid_sizes(cfg.tile_size * 16)
        cache = BenchCache(tmp_path)
        items = make_items(cfg, sizes, cache=cache)
        first = execute_items(items, jobs=2)
        assert BenchCache(tmp_path).stats().point_entries == len(items)

        # Warm run: every point served from disk, bit-identical.
        events = []
        second = execute_items(items, jobs=2, progress=events.append)
        assert second == first
        assert all(e.from_cache for e in events)

    def test_more_jobs_than_items(self, cfg):
        items = make_items(cfg, [cfg.tile_size * 2], input_names=("random",))
        # total <= 1 falls back to the serial path; 2 items with 8 workers
        # must also work.
        assert execute_items(items, jobs=8) == execute_items(items, jobs=1)
        two = make_items(cfg, [cfg.tile_size * 2])
        assert execute_items(two, jobs=8) == execute_items(two, jobs=1)


class TestProgress:
    def test_serial_progress_events(self, cfg):
        sizes = [cfg.tile_size * 2, cfg.tile_size * 4]
        items = make_items(cfg, sizes, input_names=("random",))
        events = []
        points = execute_items(items, progress=events.append)
        assert [e.done for e in events] == [1, 2]
        assert all(e.total == 2 for e in events)
        assert [e.point for e in events] == points
        assert all(e.seconds >= 0 for e in events)
        assert not any(e.from_cache for e in events)

    def test_parallel_progress_counts(self, cfg):
        sizes = [cfg.tile_size * 2, cfg.tile_size * 4]
        items = make_items(cfg, sizes)
        events = []
        execute_items(items, jobs=2, progress=events.append)
        # Completion order is nondeterministic but counts are not.
        assert sorted(e.done for e in events) == [1, 2, 3, 4]
        assert {e.item for e in events} == set(items)

    def test_describe_format(self, cfg):
        item = make_items(cfg, [cfg.tile_size * 2])[0]
        event = ProgressEvent(
            done=3, total=8, item=item, point=None, seconds=0.421,
            from_cache=True,
        )
        text = event.describe()
        assert text.startswith("[3/8] ")
        assert "0.42s" in text
        assert text.endswith("(cached)")
        uncached = ProgressEvent(
            done=3, total=8, item=item, point=None, seconds=0.421,
            from_cache=False,
        )
        assert "(cached)" not in uncached.describe()


class TestExternalPool:
    def test_external_pool_matches_serial_and_stays_usable(self, cfg):
        from concurrent.futures import ProcessPoolExecutor

        items = make_items(cfg, [cfg.tile_size * 2, cfg.tile_size * 4])
        serial = execute_items(items)
        with ProcessPoolExecutor(max_workers=2) as pool:
            first = execute_items(items, pool=pool)
            # run_points must not shut the caller's pool down: a second
            # batch on the same (warm) workers still succeeds.
            second = execute_items(items, pool=pool)
            assert first == serial
            assert second == serial
            assert pool.submit(int, 7).result() == 7

    def test_external_pool_overrides_jobs(self, cfg):
        from concurrent.futures import ProcessPoolExecutor

        items = make_items(cfg, [cfg.tile_size * 2])
        with ProcessPoolExecutor(max_workers=1) as pool:
            # jobs=1 would normally mean "serial, in-process"; an explicit
            # pool wins and the single item goes through the workers.
            assert execute_items(items, jobs=1, pool=pool) == execute_items(items)


class TestRunnerKeying:
    def test_modified_device_never_served_by_stale_runner(self, cfg):
        """Regression: worker runner tables used to key devices by
        ``device.name`` only, so a long-lived pool that had warmed a
        runner for one spec would silently serve points for a *modified*
        spec sharing the name. The key is now a fingerprint of the full
        runner configuration (see ``repro.engine.tasks.runner_key``)."""
        from concurrent.futures import ProcessPoolExecutor

        n = cfg.tile_size * 2
        base = make_items(cfg, [n], input_names=("worst-case",))
        fast = dataclasses.replace(
            QUADRO_M4000, num_sms=QUADRO_M4000.num_sms * 2
        )
        modified = [dataclasses.replace(item, device=fast) for item in base]
        with ProcessPoolExecutor(max_workers=1) as pool:
            first = execute_items(base, pool=pool)
            second = execute_items(modified, pool=pool)
        # Twice the SMs must change the modeled timing; a stale runner
        # would have returned `first` again.
        assert second != first
        # And the warm-pool result matches a fresh serial run exactly.
        assert second == execute_items(modified)

    def test_config_change_on_one_pool_is_honored(self, cfg):
        """Same staleness family, config axis: items for a different
        SortConfig submitted to the same warm pool get their own runner."""
        from concurrent.futures import ProcessPoolExecutor

        other = SortConfig(
            elements_per_thread=5, block_size=32, warp_size=32
        )
        with ProcessPoolExecutor(max_workers=1) as pool:
            first = execute_items(
                make_items(cfg, [cfg.tile_size * 2]), pool=pool
            )
            second = execute_items(
                make_items(other, [other.tile_size * 2]), pool=pool
            )
        assert {p.config_name for p in first} == {cfg.name}
        assert {p.config_name for p in second} == {other.name}
        assert second == execute_items(
            make_items(other, [other.tile_size * 2])
        )
