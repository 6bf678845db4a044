"""The daemon's whole-sort result cache.

A ``/simulate`` result is a pure function of the generated input and the
scoring knobs, so the daemon keeps recent :class:`SortResult`\\ s under
a digest of exactly those (:func:`simulate_key`) and serves a repeat
without sorting again. Hot keys repeat by construction, and so do the
tails of worst-case requests: the worst-case generator ignores its seed,
and the seed only matters to a sort that samples its blocks.

The cache is an LRU bounded by the retained bytes of its results
(:data:`RESULT_CACHE_BYTES`). Served results stay bit-identical to
direct library sorts: an entry is the very object a sort returned, and
the service re-checks ``sorted_ok`` against the request's own input on
every request.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict

import numpy as np

from repro.sort.pairwise import SortResult
from repro.sort.serialize import config_to_obj

__all__ = ["RESULT_CACHE_BYTES", "ResultCache", "result_bytes", "simulate_key"]

#: Byte budget of the daemon's result cache. A result of a few tiles
#: retains 0.1–0.5 MiB (thrust-maxwell, 4 tiles: ~0.4 MiB, mostly its
#: sorted values), so the budget holds a few dozen; a 64-tile result
#: (~4 MiB) fits once.
RESULT_CACHE_BYTES = 8 << 20

#: Per-round bookkeeping estimate (report objects, tuples) added to the
#: retained array bytes.
_ROUND_OVERHEAD = 512


def simulate_key(request, values: np.ndarray) -> bytes:
    """Digest of everything that determines a ``/simulate`` result.

    ``request`` is a :class:`~repro.service.protocol.SimulateRequest` and
    ``values`` its generated input. The seed enters only when sampling
    engages (``score_blocks`` below the ``n / tile_size`` tiles or
    blocks every round has): otherwise no round draws from it.
    ``include_values`` is left out; it changes only the encoding.
    """
    tiles = request.num_elements // request.config.tile_size
    sampled = request.score_blocks is not None and request.score_blocks < tiles
    fields = {
        "config": config_to_obj(request.config),
        "mitigation": request.mitigation,
        "padding": request.padding,
        "scoring": request.scoring,
        "score_blocks": request.score_blocks,
        "seed": request.seed if sampled else None,
        "dtype": values.dtype.str,
    }
    h = hashlib.blake2b(digest_size=16)
    h.update(json.dumps(fields, sort_keys=True).encode())
    h.update(np.ascontiguousarray(values).data)
    return h.digest()


def result_bytes(result: SortResult) -> int:
    """Approximate bytes a cached result retains."""
    total = result.values.nbytes
    for r in result.rounds:
        total += _ROUND_OVERHEAD
        for report in (r.merge_report, r.partition_report, r.staging_report):
            total += sum(period.nbytes for period, _ in report.step_segments)
    return total


class ResultCache:
    """LRU of sort results under a retained-byte budget.

    Not thread-safe: the daemon calls it under its compute lock.
    """

    def __init__(self, max_bytes: int = RESULT_CACHE_BYTES):
        self.max_bytes = max_bytes
        self._entries: OrderedDict[bytes, tuple[SortResult, int]] = OrderedDict()
        self.stored_bytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: bytes) -> SortResult | None:
        """The cached result (now most recently used), or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key: bytes, result: SortResult) -> None:
        """Store ``result``, evicting least recently used entries until
        the budget holds; a result larger than the budget is not kept."""
        size = result_bytes(result)
        if key in self._entries or size > self.max_bytes:
            return
        while self.stored_bytes + size > self.max_bytes:
            _, (_, freed) = self._entries.popitem(last=False)
            self.stored_bytes -= freed
        self._entries[key] = (result, size)
        self.stored_bytes += size

    def stats(self) -> dict:
        """JSON-safe counters: hits, misses, entries and bytes."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "stored_bytes": self.stored_bytes,
            "max_bytes": self.max_bytes,
        }
