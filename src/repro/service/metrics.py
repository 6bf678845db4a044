"""Prometheus text exposition of the service counters.

``GET /metrics`` on the daemon renders the same counter snapshot
``GET /stats`` serves as JSON, in the Prometheus text format (version
0.0.4) — plain ``# HELP``/``# TYPE`` preambles and one sample per line
— so a scrape target needs nothing beyond the daemon itself. The
renderer walks whatever sections are present in the payload and skips
the rest (``bench_cache`` is absent without ``--cache``).

The ``repro_result_cache_*`` samples render the ``/stats["memo"]``
section, the reply cache's totals over every endpoint; the
``repro_reply_cache_*`` samples render ``/stats["reply_cache"]``, the
same cache split by endpoint.
"""

from __future__ import annotations

__all__ = ["CONTENT_TYPE", "render_metrics"]

#: The content type Prometheus scrapers expect for text exposition.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_PREFIX = "repro"


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


class _Lines:
    """Accumulates samples, emitting each metric's preamble once."""

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._declared: set[str] = set()

    def sample(
        self,
        name: str,
        value,
        *,
        kind: str = "counter",
        help: str = "",
        labels: dict | None = None,
    ) -> None:
        if value is None:
            return
        name = f"{_PREFIX}_{name}"
        if name not in self._declared:
            self._declared.add(name)
            if help:
                self._lines.append(f"# HELP {name} {help}")
            self._lines.append(f"# TYPE {name} {kind}")
        label_str = ""
        if labels:
            inner = ",".join(
                f'{key}="{_escape_label(val)}"'
                for key, val in sorted(labels.items())
            )
            label_str = "{" + inner + "}"
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(int(value))
        self._lines.append(f"{name}{label_str} {rendered}")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def render_metrics(payload: dict) -> str:
    """Render one ``/stats``-shaped payload as Prometheus text."""
    out = _Lines()
    out.sample(
        "uptime_seconds",
        payload.get("uptime_seconds"),
        kind="gauge",
        help="Seconds since this daemon started.",
    )
    for path, count in sorted(payload.get("requests", {}).items()):
        out.sample(
            "requests_total",
            count,
            help="HTTP requests seen, by path (including rejected ones).",
            labels={"path": path},
        )

    batching = payload.get("batching", {})
    out.sample(
        "coalesce_primary_total",
        batching.get("primary"),
        help="Single-flight leaders that actually ran a computation.",
    )
    out.sample(
        "coalesce_hits_total",
        batching.get("coalesced"),
        help="Requests served by joining an identical in-flight leader.",
    )
    out.sample(
        "queue_depth",
        batching.get("in_flight"),
        kind="gauge",
        help="Computations currently admitted (current queue depth).",
    )
    out.sample(
        "queue_depth_peak",
        batching.get("peak_in_flight"),
        kind="gauge",
        help="High-water mark of admitted computations.",
    )
    out.sample(
        "queue_limit",
        payload.get("queue_limit"),
        kind="gauge",
        help="Admission-gate capacity.",
    )

    backpressure = payload.get("backpressure", {})
    out.sample(
        "rejected_total",
        backpressure.get("rejected"),
        help="429 responses from a full admission queue.",
    )
    out.sample(
        "quota_rejected_total",
        backpressure.get("quota_rejected"),
        help="429 responses from an exhausted per-client quota.",
    )

    for outcome, count in sorted(payload.get("responses", {}).items()):
        out.sample(
            "responses_total",
            count,
            help="Finished requests by outcome.",
            labels={"outcome": outcome},
        )
    for kind, count in sorted(payload.get("executed", {}).items()):
        out.sample(
            "executed_total",
            count,
            help="Computations actually executed (post-coalescing).",
            labels={"kind": kind},
        )
    out.sample(
        "connections_total",
        payload.get("connections"),
        help="TCP connections accepted.",
    )

    results = payload.get("memo")
    if results:
        out.sample(
            "result_cache_hits_total",
            results.get("hits"),
            help="Requests served from the reply cache.",
        )
        out.sample(
            "result_cache_misses_total",
            results.get("misses"),
            help="Requests the reply cache could not serve.",
        )
        out.sample(
            "result_cache_entries",
            results.get("entries"),
            kind="gauge",
            help="Replies held by the reply cache.",
        )
        out.sample(
            "result_cache_bytes",
            results.get("stored_bytes"),
            kind="gauge",
            help="Approximate bytes the reply cache retains.",
        )
    # One family at a time: Prometheus wants each family's samples
    # contiguous.
    split = sorted(payload.get("reply_cache", {}).items())
    for field, name, kind, help in (
        ("hits", "hits_total", "counter", "Requests served from the reply cache"),
        ("misses", "misses_total", "counter", "Reply-cache lookups that missed"),
        ("entries", "entries", "gauge", "Replies held by the reply cache"),
        ("stored_bytes", "bytes", "gauge", "Bytes the reply cache retains"),
    ):
        for endpoint, counts in split:
            out.sample(
                f"reply_cache_{name}",
                counts.get(field),
                kind=kind,
                help=f"{help}, by endpoint.",
                labels={"endpoint": endpoint},
            )

    cache = payload.get("bench_cache")
    if cache:
        out.sample(
            "bench_cache_hits_total",
            cache.get("hits"),
            help="On-disk bench-cache hits of this daemon.",
        )
        out.sample(
            "bench_cache_misses_total",
            cache.get("misses"),
            help="On-disk bench-cache misses of this daemon.",
        )
        out.sample(
            "bench_cache_bytes",
            cache.get("total_bytes"),
            kind="gauge",
            help="Bytes currently stored in the on-disk bench cache.",
        )

    for state, count in sorted(payload.get("jobs", {}).items()):
        out.sample(
            "jobs",
            count,
            kind="gauge",
            help="Scheduler jobs by state.",
            labels={"state": state},
        )
    for state, count in sorted(payload.get("chunks", {}).items()):
        out.sample(
            "job_chunks",
            count,
            kind="gauge",
            help="Scheduler chunks by state, across all jobs.",
            labels={"state": state},
        )
    out.sample(
        "chunk_retries_total",
        payload.get("chunk_retries"),
        help="Chunk submissions requeued after a worker failure.",
    )
    return out.render()
