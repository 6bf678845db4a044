"""Content-addressed memoization of conflict reports.

The constructed adversarial inputs are *periodic with the block's pattern
at every round* (DESIGN.md §5), and many benign inputs (sorted, reverse,
sawtooth) are just as repetitive: for a fixed configuration, the
rank→address pattern a tile presents to the conflict counter recurs across
tiles of one round, across rounds of one sort, and across the points of a
size sweep — the block-level rounds of an ``N = 122880`` point and an
``N = 983040`` point are bit-identical work. Scoring is a pure function of
that pattern, so this module caches finished
:class:`~repro.dmm.conflicts.ConflictReport` pairs under a digest of
everything that determines them:

* the **physical rank→address row** of the tile (post-padding addresses are
  a pure function of the logical row and the padding knob, so the logical
  row is hashed together with the padding field);
* the **scoring context** — round kind, run length, ``w``, ``E``, padding —
  via :meth:`ConflictMemo.context`;
* for global rounds, the tile's **A-window length** ``na`` (two blocks can
  share a rank→address permutation while splitting it differently between
  the A and B windows, which changes the β₁ probe sequence).

Why the digest is *exact*, including the β₁ (partition) stage: the
merge-path bisection probes compare elements of the tile's A window against
its B window, and ``A[i] <= B[j]`` holds iff ``A[i]`` precedes ``B[j]`` in
the stable (A-first) merge — which is precisely what the rank→address
pattern encodes. Identical patterns therefore replay identical probe
sequences, even in the presence of duplicate keys.

Two granularities share one :class:`ConflictMemo`:

* **tile entries** — ``digest → (merge_report, partition_report)`` for one
  scored tile/block;
* **round entries** — ``digest of the round's tile-digest sequence → the
  assembled round report pair``, so a repeated round costs one lookup.

The memo is in-memory and process-local (the on-disk
:class:`~repro.bench.cache.BenchCache` persists *results*; this layer
de-duplicates *work* inside a process or worker). Entries are bounded by
``max_entries`` with FIFO eviction; all reports stored are frozen
dataclasses, safe to share between results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.dmm.conflicts import ConflictReport
from repro.errors import ValidationError
from repro.utils.validation import check_positive_int

__all__ = ["CONTEXT_FIELDS", "ConflictMemo", "MemoStats"]

#: The scoring-context fields a memo digest binds, in digest order. This is
#: the single source of truth for "what determines a conflict report": the
#: engine layer folds the same tuple into its warm-runner fingerprints
#: (:func:`repro.engine.tasks.runner_key`), so cache identity and memo
#: identity can never drift apart silently. Deliberately *absent*: the
#: scoring backend (``vectorized``/``loop``/``fused`` are bit-identical by
#: contract — ``tests/sort/test_fused_equivalence.py`` — so entries written
#: under one backend must be served to the others).
CONTEXT_FIELDS = (
    "kind",
    "num_banks",
    "elements_per_thread",
    "run_length",
    "padding",
    "mitigation",
)

#: Short digest labels per context field (``kind`` is emitted bare).
_CONTEXT_LABELS = {
    "num_banks": "w",
    "elements_per_thread": "E",
    "run_length": "L",
    "padding": "pad",
    "mitigation": "mit",
}

#: Digest width (bytes) for pattern keys; 128-bit blake2b is collision-safe
#: at any realistic sweep size and hashes a tile row in microseconds.
_DIGEST_SIZE = 16

#: Per-entry bookkeeping overhead estimate (dict slot + report objects),
#: added on top of the stored per-step arrays when accounting bytes.
_ENTRY_OVERHEAD = 256


@dataclass(frozen=True)
class MemoStats:
    """Hit/miss/footprint summary of a :class:`ConflictMemo`.

    ``hits``/``misses`` count lookups (tile and round alike);
    ``tile_entries``/``round_entries`` and ``stored_bytes`` describe the
    retained cache content.
    """

    hits: int
    misses: int
    tile_entries: int
    round_entries: int
    stored_bytes: int

    @property
    def lookups(self) -> int:
        """Total lookups performed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __str__(self) -> str:
        return (
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), "
            f"{self.tile_entries} tile + {self.round_entries} round entries, "
            f"{self.stored_bytes:,} bytes"
        )


def _pair_bytes(pair: tuple[ConflictReport, ConflictReport]) -> int:
    """Approximate retained bytes of one cached report pair."""
    total = _ENTRY_OVERHEAD
    for report in pair:
        for period, _ in report.step_segments:
            total += period.nbytes
    return total


class ConflictMemo:
    """Content-addressed cache of finished conflict-report pairs.

    One memo may be shared freely: across the rounds of a sort, the sorts
    of a :class:`~repro.bench.runner.SweepRunner`, the members of a
    permutation family, or the items a :class:`~repro.engine.pool.PoolEngine` worker
    executes. Sharing only ever widens the hit pool — every entry is keyed
    by the full scoring context, so entries from different configurations
    never collide.

    Parameters
    ----------
    max_entries:
        Bound on *tile* entries (round entries are bounded by the same
        number). When exceeded, the oldest entry is evicted (FIFO) — random
        inputs produce an unbounded stream of unique patterns, and the
        bound keeps a long sweep's footprint flat.
    """

    #: Process-wide aggregates across every memo instance (reported by the
    #: CLI ``cache stats`` command alongside the on-disk cache).
    _process_hits = 0
    _process_misses = 0
    _process_tile_entries = 0
    _process_round_entries = 0
    _process_bytes = 0

    #: Process-wide ``mitigation spec → (hits, misses)`` breakdown. The
    #: memo itself is mitigation-blind (the spec is folded into every
    #: digest), so the sorters attribute their lookup deltas here via
    #: :meth:`record_mitigation`; ``cache stats`` and the service
    #: ``/stats`` read it to make matrix sweeps debuggable per layout.
    _process_by_mitigation: dict[str, tuple[int, int]] = {}

    def __init__(self, max_entries: int = 1 << 16):
        self.max_entries = check_positive_int(max_entries, "max_entries")
        self._tiles: dict[bytes, tuple[ConflictReport, ConflictReport]] = {}
        self._rounds: dict[bytes, tuple[ConflictReport, ConflictReport]] = {}
        self.hits = 0
        self.misses = 0
        self.stored_bytes = 0

    # -- keys ----------------------------------------------------------------

    @staticmethod
    def context(
        kind: str,
        *,
        num_banks: int,
        elements_per_thread: int,
        run_length: int,
        padding: int,
        mitigation: str = "none",
    ) -> bytes:
        """Digest prefix binding entries to one scoring situation.

        Exactly the :data:`CONTEXT_FIELDS`, serialized ``kind|w=..|E=..|
        L=..|pad=..|mit=..|``. ``mitigation`` is the canonical spec
        string of the shared-memory layout the reports were scored
        under — pattern rows are hashed *pre-remap* (logical addresses),
        so the layout must enter the digest the same way ``padding``
        always has.
        """
        values = {
            "kind": kind,
            "num_banks": num_banks,
            "elements_per_thread": elements_per_thread,
            "run_length": run_length,
            "padding": padding,
            "mitigation": mitigation,
        }
        parts = [str(values[CONTEXT_FIELDS[0]])] + [
            f"{_CONTEXT_LABELS[field]}={values[field]}"
            for field in CONTEXT_FIELDS[1:]
        ]
        return ("|".join(parts) + "|").encode("ascii")

    @staticmethod
    def tile_digests(
        context: bytes,
        rows: np.ndarray,
        extra: np.ndarray | None = None,
    ) -> list[bytes]:
        """Digest each row of a ``(tiles, ranks)`` rank→address matrix.

        ``extra`` optionally appends one int64 per row to the hashed bytes
        (the global rounds' per-block A-window length ``na``).

        Runs of consecutive identical rows are detected first (one
        vectorized comparison pass), so a periodic round — the common case
        this cache exists for, where every tile repeats one pattern — pays
        the cryptographic hash once per *stretch*, not once per tile.
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        if rows.ndim != 2:
            raise ValidationError(
                f"pattern rows must be 2-D (tiles, ranks), got {rows.shape}"
            )
        if extra is not None:
            extra = np.ascontiguousarray(extra, dtype=np.int64)
            if extra.shape != (rows.shape[0],):
                raise ValidationError(
                    f"extra must have shape ({rows.shape[0]},), got {extra.shape}"
                )
            rows = np.concatenate([rows, extra[:, None]], axis=1)
        num = rows.shape[0]
        if num == 0:
            return []
        same_as_prev = np.zeros(num, dtype=bool)
        if num > 1:
            same_as_prev[1:] = (rows[1:] == rows[:-1]).all(axis=1)
        digests: list[bytes] = []
        prev = b""
        for i in range(num):
            if not same_as_prev[i]:
                h = hashlib.blake2b(context, digest_size=_DIGEST_SIZE)
                h.update(rows[i].tobytes())
                prev = h.digest()
            digests.append(prev)
        return digests

    @staticmethod
    def round_digest(context: bytes, tile_digests: list[bytes]) -> bytes:
        """Digest of a whole round: its ordered tile-digest sequence."""
        h = hashlib.blake2b(context, digest_size=_DIGEST_SIZE)
        for digest in tile_digests:
            h.update(digest)
        return h.digest()

    # -- lookups -------------------------------------------------------------

    def _get(self, table: dict, key: bytes):
        pair = table.get(key)
        if pair is None:
            self.misses += 1
            ConflictMemo._process_misses += 1
            return None
        self.hits += 1
        ConflictMemo._process_hits += 1
        return pair

    def _put(self, table: dict, key: bytes, pair, counter: str) -> None:
        if key in table:
            return
        if len(table) >= self.max_entries:
            # FIFO eviction: dicts preserve insertion order, so the first
            # key is the oldest entry.
            oldest = next(iter(table))
            evicted = table.pop(oldest)
            freed = _pair_bytes(evicted)
            self.stored_bytes -= freed
            ConflictMemo._process_bytes -= freed
            setattr(
                ConflictMemo, counter, getattr(ConflictMemo, counter) - 1
            )
        table[key] = pair
        added = _pair_bytes(pair)
        self.stored_bytes += added
        ConflictMemo._process_bytes += added
        setattr(ConflictMemo, counter, getattr(ConflictMemo, counter) + 1)

    def get_tile(self, key: bytes):
        """Tile-level lookup; ``None`` on miss (counted)."""
        return self._get(self._tiles, key)

    def put_tile(
        self, key: bytes, pair: tuple[ConflictReport, ConflictReport]
    ) -> None:
        """Store one scored tile's ``(merge, partition)`` report pair."""
        self._put(self._tiles, key, pair, "_process_tile_entries")

    def get_round(self, key: bytes):
        """Round-level lookup; ``None`` on miss (counted)."""
        return self._get(self._rounds, key)

    def put_round(
        self, key: bytes, pair: tuple[ConflictReport, ConflictReport]
    ) -> None:
        """Store one assembled round's ``(merge, partition)`` report pair."""
        self._put(self._rounds, key, pair, "_process_round_entries")

    # -- stats ---------------------------------------------------------------

    def stats(
        self, *, hits_base: int = 0, misses_base: int = 0
    ) -> MemoStats:
        """Snapshot of this memo (optionally as a delta from a baseline).

        ``hits_base``/``misses_base`` subtract earlier counter values, so a
        caller can report the hits and misses of one sort against a shared
        long-lived memo.
        """
        return MemoStats(
            hits=self.hits - hits_base,
            misses=self.misses - misses_base,
            tile_entries=len(self._tiles),
            round_entries=len(self._rounds),
            stored_bytes=self.stored_bytes,
        )

    @classmethod
    def process_stats(cls) -> MemoStats:
        """Aggregate across every memo created in this process.

        Includes deltas absorbed from worker processes via
        :meth:`absorb_stats`, so a pool-running parent reports fleet-wide
        memo activity rather than only its own.
        """
        return MemoStats(
            hits=cls._process_hits,
            misses=cls._process_misses,
            tile_entries=cls._process_tile_entries,
            round_entries=cls._process_round_entries,
            stored_bytes=cls._process_bytes,
        )

    @classmethod
    def absorb_stats(cls, delta: MemoStats) -> None:
        """Fold a worker process's :class:`MemoStats` delta into this one.

        The ``_process_*`` counters are per-process: under pooled
        execution each worker mutates its own copies and the parent's
        aggregate would silently under-report (``cache stats``, sweep
        memo lines, and the service ``/stats`` all read it). Workers
        therefore snapshot their counters around each work item and ship
        the difference back; the parent folds it in here. Entry/byte
        deltas can be negative (FIFO eviction in the worker) — they are
        folded as-is so the aggregate tracks net retained state.
        """
        cls._process_hits += delta.hits
        cls._process_misses += delta.misses
        cls._process_tile_entries += delta.tile_entries
        cls._process_round_entries += delta.round_entries
        cls._process_bytes += delta.stored_bytes

    @classmethod
    def record_mitigation(cls, spec: str, hits: int, misses: int) -> None:
        """Attribute memo lookups to a mitigation spec.

        Called by the memoized scoring paths with their per-sort lookup
        deltas (the memo cannot see the spec at ``_get`` time — it is
        baked into the digest bytes).
        """
        if not hits and not misses:
            return
        prev_hits, prev_misses = cls._process_by_mitigation.get(spec, (0, 0))
        cls._process_by_mitigation[spec] = (
            prev_hits + hits,
            prev_misses + misses,
        )

    @classmethod
    def mitigation_stats(cls) -> dict[str, tuple[int, int]]:
        """Process-wide ``spec → (hits, misses)``, sorted by spec."""
        return dict(sorted(cls._process_by_mitigation.items()))

    @classmethod
    def mitigation_stats_delta(
        cls, baseline: dict[str, tuple[int, int]]
    ) -> dict[str, tuple[int, int]]:
        """Per-spec change since a :meth:`mitigation_stats` snapshot.

        Worker-side half of the pool stats-shipping protocol, alongside
        :meth:`process_stats_delta`.
        """
        delta: dict[str, tuple[int, int]] = {}
        for spec, (hits, misses) in cls._process_by_mitigation.items():
            base_hits, base_misses = baseline.get(spec, (0, 0))
            if hits - base_hits or misses - base_misses:
                delta[spec] = (hits - base_hits, misses - base_misses)
        return delta

    @classmethod
    def absorb_mitigation_stats(
        cls, delta: dict[str, tuple[int, int]]
    ) -> None:
        """Fold a worker's :meth:`mitigation_stats_delta` into this
        process's breakdown (parent-side half of the protocol)."""
        for spec, (hits, misses) in delta.items():
            cls.record_mitigation(spec, hits, misses)

    @classmethod
    def process_stats_delta(cls, baseline: MemoStats) -> MemoStats:
        """Change in :meth:`process_stats` since ``baseline`` was taken.

        The worker-side half of the stats-shipping protocol: snapshot
        before a work item, call this after, send the result to the
        parent's :meth:`absorb_stats`.
        """
        now = cls.process_stats()
        return MemoStats(
            hits=now.hits - baseline.hits,
            misses=now.misses - baseline.misses,
            tile_entries=now.tile_entries - baseline.tile_entries,
            round_entries=now.round_entries - baseline.round_entries,
            stored_bytes=now.stored_bytes - baseline.stored_bytes,
        )
