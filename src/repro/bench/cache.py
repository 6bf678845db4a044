"""Content-addressed on-disk cache for bench results.

Regenerating the paper's figures repeats many identical instrumented
sorts: every CLI invocation starts from a cold :class:`SweepRunner`, so
calibration sorts and exact sweep points are recomputed from scratch.
This module persists both as small JSON files keyed by a stable
fingerprint of everything that determines the result:

* for a :class:`~repro.bench.metrics.BenchPoint` — the full
  :class:`~repro.sort.config.SortConfig` field set, the full
  :class:`~repro.gpu.device.DeviceSpec` field set, the canonical
  ``mitigation`` spec (the shared-memory layout), the input family name,
  ``N``, ``score_blocks``, ``seed``, ``exact_threshold`` (it selects the
  calibration size for synthesized points), and the cache schema
  version;
* for :class:`~repro.bench.runner.CalibratedRates` — the same minus the
  device (conflict rates are combinatorial, not device-dependent), with
  the explicit calibration size instead of the threshold.

Changing *any* key field changes the fingerprint, so stale entries are
never returned — invalidation is automatic. Entries are written via a
temp file + :func:`os.replace` so concurrent workers never observe a
half-written file, and any unreadable/corrupt entry is treated as a miss
(the point is recomputed and the entry rewritten).

The default location is ``~/.cache/repro-mergesort`` (override with
``--cache-dir`` or the ``REPRO_MERGESORT_CACHE_DIR`` environment
variable).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.bench.metrics import BenchPoint
from repro.gpu.device import DeviceSpec
from repro.sort.config import SortConfig

__all__ = [
    "SCHEMA_VERSION",
    "BenchCache",
    "CacheStats",
    "PruneResult",
    "default_cache_dir",
    "fingerprint",
    "point_key",
    "rates_key",
]

#: Bump when the meaning of cached payloads changes; old entries then
#: hash to different fingerprints and are simply never hit again.
SCHEMA_VERSION = 1

#: Environment override for the default cache location.
ENV_CACHE_DIR = "REPRO_MERGESORT_CACHE_DIR"


def default_cache_dir() -> Path:
    """The cache root used when no ``--cache-dir`` is given."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-mergesort"


def fingerprint(key: dict) -> str:
    """Stable hex digest of a JSON-serializable key dict."""
    canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def point_key(
    config: SortConfig,
    device: DeviceSpec,
    *,
    mitigation: str,
    input_name: str,
    num_elements: int,
    score_blocks: int | None,
    seed: int,
    exact_threshold: int,
    scoring: str | None = None,
) -> dict:
    """Cache key for one :class:`BenchPoint`.

    ``mitigation`` is the layout's canonical spec
    (:attr:`~repro.mitigation.base.Mitigation.spec`), so one layout has
    one fingerprint however it was spelled. ``scoring`` stays out of the
    key (``None``) for every bit-identical mode; the runner passes
    ``"analytic"`` only for its explicit exact-at-every-size path, whose
    above-threshold points legitimately differ from synthesized ones.
    """
    key = {
        "kind": "point",
        "schema": SCHEMA_VERSION,
        "config": dataclasses.asdict(config),
        "device": dataclasses.asdict(device),
        "mitigation": mitigation,
        "input": input_name,
        "num_elements": num_elements,
        "score_blocks": score_blocks,
        "seed": seed,
        "exact_threshold": exact_threshold,
    }
    if scoring is not None:
        key["scoring"] = scoring
    return key


def rates_key(
    config: SortConfig,
    *,
    mitigation: str,
    input_name: str,
    calibration_size: int,
    score_blocks: int | None,
    seed: int,
) -> dict:
    """Cache key for one :class:`CalibratedRates` measurement.

    ``mitigation`` is the canonical layout spec, as in :func:`point_key`.
    """
    return {
        "kind": "rates",
        "schema": SCHEMA_VERSION,
        "config": dataclasses.asdict(config),
        "mitigation": mitigation,
        "input": input_name,
        "calibration_size": calibration_size,
        "score_blocks": score_blocks,
        "seed": seed,
    }


@dataclass(frozen=True)
class CacheStats:
    """Summary of what a cache directory holds."""

    cache_dir: str
    point_entries: int
    rate_entries: int
    total_bytes: int

    def __str__(self) -> str:
        return (
            f"{self.cache_dir}: {self.point_entries} bench points, "
            f"{self.rate_entries} calibrations, {self.total_bytes:,} bytes"
        )


@dataclass(frozen=True)
class PruneResult:
    """Outcome of one :meth:`BenchCache.prune` pass."""

    removed_entries: int
    removed_bytes: int
    kept_entries: int
    kept_bytes: int

    def __str__(self) -> str:
        return (
            f"pruned {self.removed_entries} entries "
            f"({self.removed_bytes:,} bytes); kept {self.kept_entries} "
            f"entries ({self.kept_bytes:,} bytes)"
        )


class BenchCache:
    """On-disk store for bench points and calibration rates.

    Safe to share a directory between concurrent worker processes: writes
    are atomic (temp file + rename) and reads of corrupt or partial
    entries degrade to cache misses.

    Parameters
    ----------
    cache_dir:
        Root directory; defaults to :func:`default_cache_dir`.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None):
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.hits = 0
        self.misses = 0

    # -- paths ---------------------------------------------------------------

    def _entry_path(self, key: dict) -> Path:
        subdir = "points" if key.get("kind") == "point" else "rates"
        return self.cache_dir / subdir / f"{fingerprint(key)}.json"

    # -- generic load/store --------------------------------------------------

    def _load(self, key: dict) -> dict | None:
        path = self._entry_path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
            payload = entry["payload"]
            if not isinstance(payload, dict):
                raise TypeError("payload must be a dict")
        except (OSError, ValueError, KeyError, TypeError):
            # Missing, partial, or corrupt entry: recompute instead.
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def _store(self, key: dict, payload: dict) -> None:
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"key": key, "payload": payload}
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- typed API -----------------------------------------------------------

    def get_point(self, key: dict) -> BenchPoint | None:
        """Look up a bench point; ``None`` on miss or unreadable entry."""
        payload = self._load(key)
        if payload is None:
            return None
        try:
            return BenchPoint(**payload)
        except TypeError:
            self.hits -= 1
            self.misses += 1
            return None

    def put_point(self, key: dict, point: BenchPoint) -> None:
        """Store a bench point under its fingerprint."""
        self._store(key, dataclasses.asdict(point))

    def get_rates(self, key: dict):
        """Look up calibrated rates; ``None`` on miss or unreadable entry."""
        from repro.bench.runner import CalibratedRates

        payload = self._load(key)
        if payload is None:
            return None
        try:
            return CalibratedRates(**payload)
        except TypeError:
            self.hits -= 1
            self.misses += 1
            return None

    def put_rates(self, key: dict, rates) -> None:
        """Store calibrated rates under their fingerprint."""
        self._store(key, dataclasses.asdict(rates))

    # -- maintenance ---------------------------------------------------------

    def _entries(self) -> list[Path]:
        if not self.cache_dir.is_dir():
            return []
        return sorted(
            p
            for sub in ("points", "rates")
            for p in (self.cache_dir / sub).glob("*.json")
        )

    def stats(self) -> CacheStats:
        """Entry counts and on-disk footprint."""
        points = rates = total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            if path.parent.name == "points":
                points += 1
            else:
                rates += 1
        return CacheStats(
            cache_dir=str(self.cache_dir),
            point_entries=points,
            rate_entries=rates,
            total_bytes=total,
        )

    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    #: Minimum age (seconds) before an orphaned ``*.tmp`` is collected.
    #: A live writer holds its temp file only for the instant between
    #: :func:`tempfile.mkstemp` and :func:`os.replace`; anything older
    #: than this by mtime is a crashed writer's leftover, not a write in
    #: flight.
    TMP_GRACE_SECONDS = 60.0

    def prune(
        self, max_bytes: int, *, tmp_grace: float | None = None
    ) -> PruneResult:
        """Evict least-recently-written entries until ≤ ``max_bytes`` remain.

        LRU order is mtime: :meth:`_store`'s temp-file + :func:`os.replace`
        discipline stamps every entry at its last (re)write, so the oldest
        files are the ones no recent run touched. Orphaned ``*.tmp`` files
        left behind by crashed writers are removed too — but only once
        they are older than ``tmp_grace`` seconds (default
        :attr:`TMP_GRACE_SECONDS`): the directory is shared with
        concurrent workers, and a fresh ``*.tmp`` may be mid-write, about
        to be :func:`os.replace`'d into place. Deleting it would make the
        writer's rename fail and drop its result. A long-running server
        calls this periodically (or an operator runs ``repro-mergesort
        cache prune --max-mb N``) so the disk cache stays bounded.
        Entries that vanish concurrently (another pruner, a ``clear``)
        are skipped, not errors.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if tmp_grace is None:
            tmp_grace = self.TMP_GRACE_SECONDS
        removed = removed_bytes = 0
        if self.cache_dir.is_dir():
            cutoff = time.time() - tmp_grace
            for sub in ("points", "rates"):
                for tmp in (self.cache_dir / sub).glob("*.tmp"):
                    try:
                        stat = tmp.stat()
                        if stat.st_mtime > cutoff:
                            continue  # possibly a write in flight
                        size = stat.st_size
                        tmp.unlink()
                    except OSError:
                        continue
                    removed += 1
                    removed_bytes += size

        entries = []
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path, stat.st_size))
        entries.sort()  # oldest first

        total = sum(size for _, _, size in entries)
        kept = len(entries)
        for _, path, size in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            kept -= 1
            removed += 1
            removed_bytes += size
        return PruneResult(
            removed_entries=removed,
            removed_bytes=removed_bytes,
            kept_entries=kept,
            kept_bytes=total,
        )
