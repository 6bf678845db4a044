"""Small blocking client for the generation-and-scoring daemon.

Used by ``repro-mergesort request`` (and by tests/CI) so consumers can
target a warm long-lived server instead of cold-starting the library.
Transport is stdlib :mod:`http.client`; responses decode back into the
same library types a direct call returns —
:class:`~repro.sort.pairwise.SortResult` from ``/simulate``,
:class:`numpy.ndarray` from ``/construct``,
:class:`~repro.bench.metrics.BenchPoint` lists from ``/sweep`` — so the
two paths are interchangeable (and bit-identical, which the service
tests enforce).

Failures map onto the library's exception hierarchy: HTTP 4xx raises
:class:`~repro.errors.ValidationError` (429 specifically raises
:class:`~repro.errors.BackpressureError` carrying the server's
``Retry-After`` hint) and transport errors or 5xx raise
:class:`~repro.errors.ServiceError`.
"""

from __future__ import annotations

import email.utils
import http.client
import json
import socket
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

import numpy as np

from repro.bench.metrics import BenchPoint
from repro.errors import BackpressureError, ServiceError, ValidationError
from repro.service.protocol import point_from_obj
from repro.sort.pairwise import SortResult
from repro.sort.serialize import array_from_obj, result_from_obj

__all__ = ["ServiceClient", "SimulateReply", "SweepReply", "parse_retry_after"]

#: Backoff (seconds) when a 429 carries no usable ``Retry-After``.
_DEFAULT_RETRY_AFTER = 1.0


def parse_retry_after(header: str | None) -> float:
    """Decode a ``Retry-After`` header into a backoff in seconds.

    RFC 9110 allows either a non-negative integer of seconds or an
    HTTP-date; proxies in the wild also emit junk. A 429 is a
    *backpressure* signal — it must surface as a typed
    :class:`~repro.errors.BackpressureError`, never as a client-side
    ``ValueError`` from ``float(header)`` — so anything unparseable
    falls back to a small default instead of raising.
    """
    if header is None:
        return _DEFAULT_RETRY_AFTER
    header = header.strip()
    try:
        seconds = float(header)
    except ValueError:
        pass
    else:
        # Negative or non-finite values are nonsense; clamp to default.
        if seconds >= 0.0 and seconds == seconds and seconds != float("inf"):
            return seconds
        return _DEFAULT_RETRY_AFTER
    try:
        when = email.utils.parsedate_to_datetime(header)
    except (TypeError, ValueError):
        return _DEFAULT_RETRY_AFTER
    if when is None:
        return _DEFAULT_RETRY_AFTER
    return max(0.0, when.timestamp() - time.time())


@dataclass(frozen=True)
class SimulateReply:
    """Decoded ``/simulate`` response."""

    result: SortResult
    sorted_ok: bool
    coalesced: bool


@dataclass(frozen=True)
class SweepReply:
    """Decoded ``/sweep`` response (points in input-major item order)."""

    points: list[BenchPoint]
    inputs: list[str]
    sizes: list[int]
    coalesced: bool


class ServiceClient:
    """Blocking JSON-over-HTTP client for one daemon.

    Parameters
    ----------
    base_url:
        ``http://host:port`` of a running ``repro-mergesort serve``.
    timeout:
        Socket timeout per request (seconds); should exceed the server's
        per-request deadline so the server, not the client, decides when
        a computation is too slow.
    """

    def __init__(
        self,
        base_url: str = "http://127.0.0.1:8787",
        *,
        timeout: float = 630.0,
        client_id: str | None = None,
    ):
        split = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if split.scheme not in ("", "http"):
            raise ValidationError(f"unsupported scheme {split.scheme!r} (http only)")
        if not split.hostname:
            raise ValidationError(f"no host in service URL {base_url!r}")
        self.host = split.hostname
        self.port = split.port or 8787
        self.timeout = timeout
        #: Sent as ``X-Client-Id`` on every request; quota-enabled
        #: servers meter by it (falling back to the peer address).
        self.client_id = client_id

    # -- transport -----------------------------------------------------------

    def _roundtrip(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, str | None, bytes]:
        """One HTTP exchange → ``(status, retry_after_header, raw_body)``."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            status = response.status
            retry_after = response.getheader("Retry-After")
            raw = response.read()
        except (OSError, socket.timeout, http.client.HTTPException) as exc:
            raise ServiceError(
                f"service at http://{self.host}:{self.port} unreachable: {exc}"
            ) from exc
        finally:
            conn.close()
        return status, retry_after, raw

    def request(self, method: str, path: str, payload: dict | None = None) -> dict:
        """One HTTP round-trip; returns the decoded JSON body."""
        status, retry_after, raw = self._roundtrip(method, path, payload)
        try:
            decoded = json.loads(raw) if raw else {}
        except ValueError:
            decoded = {"error": raw.decode("utf-8", "replace")}
        if status == 429:
            raise BackpressureError(
                decoded.get("error", "server busy"),
                retry_after=parse_retry_after(retry_after),
            )
        if 400 <= status < 500:
            raise ValidationError(
                f"{path}: {decoded.get('error', f'HTTP {status}')}"
            )
        if status >= 500:
            raise ServiceError(
                f"{path}: {decoded.get('error', f'HTTP {status}')}",
                status=status,
            )
        return decoded

    # -- control endpoints ---------------------------------------------------

    def healthz(self) -> dict:
        """Liveness probe."""
        return self.request("GET", "/healthz")

    def stats(self) -> dict:
        """The server's counter snapshot."""
        return self.request("GET", "/stats")

    def metrics(self) -> str:
        """The server's counters in Prometheus text format."""
        status, _, raw = self._roundtrip("GET", "/metrics")
        text = raw.decode("utf-8", "replace")
        if status != 200:
            raise ServiceError(f"/metrics: HTTP {status}: {text}", status=status)
        return text

    def shutdown(self) -> dict:
        """Ask the server to drain and exit."""
        return self.request("POST", "/shutdown")

    # -- job scheduler ------------------------------------------------------

    def submit_job(self, manifest: dict) -> dict:
        """Submit a chunked job manifest; returns ``{"job_id": ...}``."""
        return self.request("POST", "/jobs", manifest)

    def job_status(self, job_id: str) -> dict:
        """Am-I-done probe: chunk counts, and points once complete."""
        return self.request("GET", f"/jobs/{job_id}")

    def wait_for_job(
        self, job_id: str, *, timeout: float = 600.0, poll: float = 0.1
    ) -> dict:
        """Poll :meth:`job_status` until the job reports ``done``."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.job_status(job_id)
            if status.get("done"):
                return status
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status.get('status')!r} "
                    f"after {timeout:g}s"
                )
            time.sleep(poll)

    # -- compute endpoints ---------------------------------------------------

    def construct(
        self,
        *,
        preset: str | None = None,
        config: dict | None = None,
        tiles: int | None = None,
        num_elements: int | None = None,
        encoding: str = "b64",
    ) -> np.ndarray:
        """Fetch an adversarial permutation."""
        payload = _body(
            preset=preset,
            config=config,
            tiles=tiles,
            num_elements=num_elements,
            encoding=encoding,
        )
        reply = self.request("POST", "/construct", payload)
        values = reply["values"]
        if reply.get("encoding") == "json":
            return np.asarray(values, dtype=np.int64)
        return array_from_obj(values)

    def simulate(
        self,
        *,
        preset: str | None = None,
        config: dict | None = None,
        input: str = "worst-case",
        tiles: int | None = None,
        num_elements: int | None = None,
        score_blocks: int | None = 8,
        seed: int = 0,
        include_values: bool = True,
        scoring: str | None = None,
        mitigation: str | None = None,
    ) -> SimulateReply:
        """Run one instrumented sort on the server.

        ``scoring=None`` leaves the engine choice to the server (its
        default is ``"vectorized"``); pass ``"analytic"`` for the
        closed-form path on constructed families. ``mitigation`` selects
        the shared-memory layout by spec string, e.g. ``"padding:1"``
        (server default ``"none"``, the stock layout).
        """
        payload = _body(
            preset=preset,
            config=config,
            input=input,
            tiles=tiles,
            num_elements=num_elements,
            seed=seed,
            include_values=include_values,
            scoring=scoring,
            mitigation=mitigation,
        )
        # None means "score every block" (the protocol's explicit null),
        # not "use the server default of 8" — so it must survive _body.
        payload["score_blocks"] = score_blocks
        reply = self.request("POST", "/simulate", payload)
        return SimulateReply(
            result=result_from_obj(reply["result"]),
            sorted_ok=bool(reply["sorted_ok"]),
            coalesced=bool(reply.get("coalesced", False)),
        )

    def sweep(
        self,
        *,
        preset: str | None = None,
        config: dict | None = None,
        device: str = "quadro-m4000",
        inputs: list[str] | None = None,
        sizes: list[int] | None = None,
        max_elements: int | None = None,
        min_elements: int = 0,
        exact_threshold: int = 1 << 20,
        score_blocks: int | None = 8,
        seed: int = 0,
        scoring: str | None = None,
        mitigation: str | None = None,
    ) -> SweepReply:
        """Run a grid of bench points on the server.

        ``scoring=None`` leaves the engine choice to the server (its
        default is ``"auto"``: closed-form for analytic-eligible
        constructed-family points, simulated for the rest).
        """
        payload = _body(
            preset=preset,
            config=config,
            device=device,
            inputs=inputs,
            sizes=sizes,
            max_elements=max_elements,
            min_elements=min_elements,
            exact_threshold=exact_threshold,
            seed=seed,
            scoring=scoring,
            mitigation=mitigation,
        )
        # As in simulate(): an explicit null means "score every block".
        payload["score_blocks"] = score_blocks
        reply = self.request("POST", "/sweep", payload)
        return SweepReply(
            points=[point_from_obj(p) for p in reply["points"]],
            inputs=list(reply["inputs"]),
            sizes=[int(s) for s in reply["sizes"]],
            coalesced=bool(reply.get("coalesced", False)),
        )


def _body(**fields) -> dict:
    """Drop ``None`` fields so server-side defaults apply."""
    return {name: value for name, value in fields.items() if value is not None}
