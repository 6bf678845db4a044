"""Picklable sweep work items and the shared per-item execution core.

:class:`WorkItem` / :class:`ProgressEvent` / :func:`sweep_items` /
:func:`cache_ref` describe sweep points for every engine (also exported
from :mod:`repro.engine`). The per-item execution core — a runner table
keyed by content-addressed fingerprint plus :func:`execute_item` — is
shared by the serial :class:`~repro.engine.inline.InlineEngine` path and
by every :class:`~repro.engine.pool.PoolEngine` worker process.

The runner table key is :func:`runner_key`: a
:func:`repro.bench.cache.fingerprint` over *every* field of the item's
runner configuration, including the full
:class:`~repro.gpu.device.DeviceSpec` field set. The previous table
keyed devices by ``device.name`` only, so a long-lived pool whose
workers predated a device/config change could serve stale runners — two
specs sharing a marketing name but differing in clocks or SM counts
collided (regression-tested in ``tests/bench/test_parallel.py``).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.engine.registry import DEFAULT_SCORING

if TYPE_CHECKING:  # pragma: no cover - runtime imports stay lazy so this
    # module is importable from anywhere in the bench layer without cycles
    from repro.bench.cache import BenchCache
    from repro.bench.metrics import BenchPoint
    from repro.bench.runner import SweepRunner
    from repro.gpu.device import DeviceSpec
    from repro.sort.config import SortConfig

__all__ = [
    "ProgressEvent",
    "WorkItem",
    "cache_ref",
    "execute_item",
    "runner_for",
    "runner_key",
    "sweep_items",
]


@dataclass(frozen=True)
class WorkItem:
    """One picklable sweep point: everything a worker needs to run it."""

    config: SortConfig
    device: DeviceSpec
    input_name: str
    num_elements: int
    exact_threshold: int = 1 << 21
    score_blocks: int | None = 8
    seed: int = 0
    padding: int = 0
    #: Runner scoring mode ("auto" | "vectorized" | "loop" | "analytic");
    #: see :class:`~repro.bench.runner.SweepRunner`. The default is the
    #: registry-wide :data:`~repro.engine.registry.DEFAULT_SCORING`
    #: ("auto"), shared with ``SweepRunner`` and every CLI/service entry
    #: point, so serial and pooled sweeps resolve the same engine for
    #: every point.
    scoring: str = DEFAULT_SCORING
    #: Shared-memory layout defense, as a canonical spec string (see
    #: :mod:`repro.mitigation.registry`).
    mitigation: str = "none"
    cache_dir: str | None = None
    use_cache: bool = False

    def describe(self) -> str:
        """Human-readable label for progress lines."""
        return (
            f"{self.config.name} · {self.device.name} · {self.input_name} "
            f"· N={self.num_elements:,}"
        )


@dataclass(frozen=True)
class ProgressEvent:
    """Emitted to the ``progress`` callback after each completed point."""

    done: int
    total: int
    item: WorkItem
    point: BenchPoint
    seconds: float
    from_cache: bool

    def describe(self) -> str:
        """One progress/timing line."""
        tag = " (cached)" if self.from_cache else ""
        return f"[{self.done}/{self.total}] {self.item.describe()} · " \
               f"{self.seconds:.2f}s{tag}"


def cache_ref(cache: BenchCache | None) -> tuple[str | None, bool]:
    """Picklable (cache_dir, use_cache) reference to a cache instance."""
    if cache is None:
        return None, False
    return str(cache.cache_dir), True


def sweep_items(
    config: SortConfig,
    device: DeviceSpec,
    input_names: Sequence[str],
    sizes: Iterable[int],
    *,
    exact_threshold: int = 1 << 21,
    score_blocks: int | None = 8,
    seed: int = 0,
    padding: int = 0,
    scoring: str = DEFAULT_SCORING,
    mitigation: str = "none",
    cache: BenchCache | None = None,
) -> list[WorkItem]:
    """Work items for a size sweep of each input family, in sweep order."""
    cache_dir, use_cache = cache_ref(cache)
    return [
        WorkItem(
            config=config,
            device=device,
            input_name=name,
            num_elements=n,
            exact_threshold=exact_threshold,
            score_blocks=score_blocks,
            seed=seed,
            padding=padding,
            scoring=scoring,
            mitigation=mitigation,
            cache_dir=cache_dir,
            use_cache=use_cache,
        )
        for name in input_names
        for n in sizes
    ]


# -- per-item execution core ------------------------------------------------


def runner_key(item: WorkItem) -> str:
    """Content-addressed key of the runner an item needs.

    Fingerprints the *entire* runner configuration — notably the full
    device field set, not just ``device.name`` — so a config or device
    change can never be served by a stale warm runner in a long-lived
    worker process.
    """
    from repro.bench.cache import fingerprint
    from repro.dmm.memo import CONTEXT_FIELDS

    return fingerprint(
        {
            "kind": "runner",
            # Folding the memo's context-field tuple in means a change to
            # what the memo digests (a new field, a reorder) retires every
            # warm runner — their private memos keyed the old way.
            "memo_context_fields": list(CONTEXT_FIELDS),
            "config": dataclasses.asdict(item.config),
            "device": dataclasses.asdict(item.device),
            "exact_threshold": item.exact_threshold,
            "score_blocks": item.score_blocks,
            "seed": item.seed,
            "padding": item.padding,
            "scoring": item.scoring,
            "mitigation": item.mitigation,
            "cache_dir": item.cache_dir,
            "use_cache": item.use_cache,
        }
    )


def runner_for(item: WorkItem, table: dict[str, SweepRunner]) -> SweepRunner:
    """The table's runner for this item, built on first use.

    Runners are warm state: calibrations and the runner-private conflict
    memo are reused across every item that maps to the same key.
    """
    from repro.bench.cache import BenchCache
    from repro.bench.runner import SweepRunner

    key = runner_key(item)
    runner = table.get(key)
    if runner is None:
        cache = BenchCache(item.cache_dir) if item.use_cache else None
        runner = SweepRunner(
            item.config,
            item.device,
            exact_threshold=item.exact_threshold,
            score_blocks=item.score_blocks,
            seed=item.seed,
            padding=item.padding,
            scoring=item.scoring,
            mitigation=item.mitigation,
            cache=cache,
        )
        table[key] = runner
    return runner


def execute_item(
    item: WorkItem, table: dict[str, SweepRunner]
) -> tuple[BenchPoint, float, bool]:
    """Run one work item; returns (point, seconds, served-from-cache)."""
    runner = runner_for(item, table)
    hits_before = runner.cache.hits if runner.cache is not None else 0
    start = time.perf_counter()
    point = runner.run_point(item.input_name, item.num_elements)
    elapsed = time.perf_counter() - start
    from_cache = runner.cache is not None and runner.cache.hits > hits_before
    return point, elapsed, from_cache
