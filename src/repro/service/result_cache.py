"""The daemon's reply cache.

Every compute endpoint's reply is a pure function of its request, so the
daemon keeps the encoded JSON of recent successful replies and answers a
repeat by writing those bytes again: no admission slot, no single
flight, no compute lock and no re-encoding. One LRU, bounded by the
bytes it retains (:data:`RESULT_CACHE_BYTES`), serves all three
endpoints:

* ``/sweep`` and ``/construct`` entries are keyed by the request's
  ``coalesce_key()`` and hold the reply head (:func:`reply_head`), the
  whole body up to its closing ``"coalesced"`` flag.
* ``/simulate`` entries are keyed by :func:`simulate_key`, a digest of
  the generated input and the scoring knobs, so worst-case tails with
  any seed share one sort. An entry (:class:`SimulateEntry`) keeps the
  sort's encoded result with and without its values, so both
  ``include_values`` settings share it, plus the sorted values
  themselves: the daemon re-checks ``sorted_ok`` against the request's
  own input on every request.

Bodies served from the cache are byte-identical to the ones a fresh
computation encodes; only the reply's own ``coalesced`` flag differs.
The cache is safe to call from the event loop and from executor threads
at once: every access takes its one lock.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.sort.pairwise import SortResult
from repro.sort.serialize import array_to_obj, config_to_obj, result_to_obj

__all__ = [
    "ENDPOINTS",
    "RESULT_CACHE_BYTES",
    "ReplyCache",
    "SimulateEntry",
    "reply_body",
    "reply_head",
    "simulate_key",
]

#: Byte budget of the daemon's reply cache. A ``/simulate`` entry
#: retains its sorted values, their base64 text and the encoded rounds:
#: ~0.8 MiB for 4 thrust-maxwell tiles, ~0.2 MiB for 4 mgpu-maxwell
#: tiles, ~2.3 MiB for 64. A sweep reply is a few KiB and a construct
#: reply about 1.3 bytes per element, so the budget holds the hot set
#: of a mixed load.
RESULT_CACHE_BYTES = 8 << 20

#: The endpoints whose replies are cached, in ``/stats`` order.
ENDPOINTS = ("/construct", "/simulate", "/sweep")

_COALESCED = b', "ok": true, "coalesced": '
_NO_VALUES = b'{"values": null, '


def reply_head(payload: dict) -> bytes:
    """The encoded reply to ``payload`` up to its ``coalesced`` value.

    ``reply_body(reply_head(p), c)`` is byte for byte
    ``json.dumps({**p, "ok": True, "coalesced": c})``.
    """
    return json.dumps(payload).encode()[:-1] + _COALESCED


def reply_body(head: bytes, coalesced: bool) -> bytes:
    """Close a :func:`reply_head` with the reply's own ``coalesced`` flag."""
    return head + (b"true}" if coalesced else b"false}")


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
        "scoring": request.scoring,
        "score_blocks": request.score_blocks,
        "seed": request.seed if sampled else None,
        "dtype": values.dtype.str,
    }
    h = hashlib.blake2b(digest_size=16)
    h.update(json.dumps(fields, sort_keys=True).encode())
    h.update(np.ascontiguousarray(values).data)
    return h.digest()


@dataclass(frozen=True)
class SimulateEntry:
    """One sort, kept as what its replies need.

    ``values`` are the sorted values ``sorted_ok`` compares a request's
    input against; ``values_json`` is their encoded array object and
    ``rest_json`` the encoded result after its ``"values"`` field.
    """

    values: np.ndarray
    values_json: bytes
    rest_json: bytes

    @classmethod
    def encode(cls, result: SortResult) -> "SimulateEntry":
        """Encode ``result`` once for both ``include_values`` settings."""
        bare = json.dumps(result_to_obj(result, include_values=False)).encode()
        assert bare.startswith(_NO_VALUES)
        return cls(
            values=result.values,
            values_json=json.dumps(array_to_obj(result.values)).encode(),
            rest_json=bare[len(_NO_VALUES) :],
        )

    @property
    def nbytes(self) -> int:
        return self.values.nbytes + len(self.values_json) + len(self.rest_json)

    def reply_head(self, sorted_ok: bool, include_values: bool) -> bytes:
        """:func:`reply_head` of ``{"sorted_ok": ..., "result": ...}``."""
        return b"".join(
            (
                b'{"sorted_ok": ',
                b"true" if sorted_ok else b"false",
                b', "result": {"values": ',
                self.values_json if include_values else b"null",
                b", ",
                self.rest_json,
                _COALESCED,
            )
        )


def _entry_bytes(value: bytes | SimulateEntry) -> int:
    return value.nbytes if isinstance(value, SimulateEntry) else len(value)


class ReplyCache:
    """LRU of encoded replies under one retained-byte budget.

    Entries are keyed by ``(endpoint, key)``; hits, misses, entries and
    bytes are counted per endpoint. Lookups, stores and the stats take
    the cache's one lock.
    """

    def __init__(self, max_bytes: int = RESULT_CACHE_BYTES):
        self.max_bytes = max_bytes
        #: (endpoint, key) -> (entry, retained bytes), oldest first.
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits: Counter[str] = Counter()
        self._misses: Counter[str] = Counter()
        self._count: Counter[str] = Counter()
        self._bytes: Counter[str] = Counter()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stored_bytes(self) -> int:
        return sum(self._bytes.values())

    def get(self, endpoint: str, key: Hashable):
        """The cached entry (now most recently used), or ``None``."""
        with self._lock:
            entry = self._entries.get((endpoint, key))
            if entry is None:
                self._misses[endpoint] += 1
                return None
            self._hits[endpoint] += 1
            self._entries.move_to_end((endpoint, key))
            return entry[0]

    def put(self, endpoint: str, key: Hashable, value: bytes | SimulateEntry) -> None:
        """Store ``value``, evicting least recently used entries until
        the budget holds; an entry larger than the budget is not kept."""
        size = _entry_bytes(value)
        with self._lock:
            if (endpoint, key) in self._entries or size > self.max_bytes:
                return
            while self.stored_bytes + size > self.max_bytes:
                (old, _), (_, freed) = self._entries.popitem(last=False)
                self._count[old] -= 1
                self._bytes[old] -= freed
            self._entries[endpoint, key] = (value, size)
            self._count[endpoint] += 1
            self._bytes[endpoint] += size

    def stats(self) -> dict:
        """Totals over every endpoint, the ``/stats["memo"]`` section."""
        with self._lock:
            return {
                "hits": sum(self._hits.values()),
                "misses": sum(self._misses.values()),
                "entries": len(self._entries),
                "stored_bytes": self.stored_bytes,
                "max_bytes": self.max_bytes,
            }

    def endpoint_stats(self) -> dict:
        """Per-endpoint counters, the ``/stats["reply_cache"]`` section."""
        with self._lock:
            return {
                endpoint: {
                    "hits": self._hits[endpoint],
                    "misses": self._misses[endpoint],
                    "entries": self._count[endpoint],
                    "stored_bytes": self._bytes[endpoint],
                }
                for endpoint in ENDPOINTS
            }
