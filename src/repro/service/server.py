"""The asyncio generation-and-scoring daemon.

A long-lived process that amortizes everything a cold CLI invocation
pays per run: one byte-bounded
:class:`~repro.service.result_cache.ReplyCache` answers a repeated
``/simulate``, ``/sweep`` or ``/construct`` request with the reply bytes
it already encoded, one optional :class:`~repro.bench.cache.BenchCache`
serves sweep points and calibrations from disk, and (with ``jobs > 1``)
one warm :class:`~concurrent.futures.ProcessPoolExecutor` keeps
calibrated :class:`~repro.bench.runner.SweepRunner`\\ s alive in its
workers between ``/sweep`` requests.

HTTP/1.1 is hand-rolled over :func:`asyncio.start_server` — no
``http.server``, no third-party dependencies. Endpoints:

====================  =====================================================
``POST /construct``   adversarial permutation for a config (base64 or JSON)
``POST /simulate``    instrumented sort → serialized ``SortResult``
``POST /sweep``       grid of bench points via the parallel worker pool
``POST /jobs``        chunked sweep manifest → ``job_id`` (202)
``GET  /jobs/<id>``   am-I-done probe; the full point set once done
``GET  /healthz``     liveness (+ draining state)
``GET  /stats``       counters, batching/backpressure, reply + disk cache
``GET  /metrics``     the same counters in Prometheus text format
``POST /shutdown``    graceful drain, same path as SIGTERM
====================  =====================================================

Request flow for the compute endpoints: parse/validate → fingerprint →
reply cache (``/sweep`` and ``/construct`` repeats are answered here, on
the event loop) → single-flight (identical in-flight requests share one
computation) → bounded admission (full ⇒ 429 + ``Retry-After``) →
thread-pool execution with a per-request deadline (expired ⇒ 504 for
that waiter only). The executor thread also encodes the reply, so the
event loop only writes bytes. ``/simulate`` looks its entry up in the
executor thread, because its key digests the generated input and its
``sorted_ok`` is re-checked against that input on every request.
``/jobs`` chunks take the same path through
:class:`~repro.service.scheduler.JobScheduler`, so a chunk coalesces
with an identical direct ``/sweep``. SIGTERM/SIGINT (or
``POST /shutdown``) stop the listener, close idle keep-alive
connections, let in-flight work finish within ``drain_timeout``, then
exit.

Sorts serialize on one process-wide lock: the simulator is a NumPy hot
loop that saturates a core anyway. Input generation, cache lookups and
encoding stay outside it. Scaling across cores is the job of the
``/sweep`` and ``/jobs`` process pool (``jobs > 1``).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import signal
import sys
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.adversary.permutation import worst_case_permutation
from repro.bench.cache import BenchCache
from repro.engine import SortTask, create_engine, engine_for_scoring
from repro.engine.base import ExecutionEngine
from repro.engine.tasks import WorkItem
from repro.errors import (
    ConfigurationError,
    ConstructionError,
    ReproError,
    ServiceError,
    ValidationError,
)
from repro.inputs.generators import generate
from repro.service.batching import AdmissionGate, ClientQuotas, SingleFlight
from repro.service.metrics import CONTENT_TYPE as _METRICS_CONTENT_TYPE
from repro.service.metrics import render_metrics
from repro.service.protocol import (
    ConstructRequest,
    SimulateRequest,
    SweepRequest,
    point_to_obj,
)
from repro.service.result_cache import (
    ReplyCache,
    SimulateEntry,
    reply_body,
    reply_head,
    simulate_key,
)
from repro.service.scheduler import JobScheduler
from repro.service.stats import ServiceStats
from repro.sort.serialize import array_to_obj, config_to_obj

__all__ = [
    "ServiceConfig",
    "ReproService",
    "run_service",
    "serve_forever",
]

_MAX_HEADER_BYTES = 32 * 1024
_MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_ENDPOINTS = {
    "/healthz": "GET",
    "/stats": "GET",
    "/metrics": "GET",
    "/shutdown": "POST",
    "/construct": "POST",
    "/simulate": "POST",
    "/sweep": "POST",
    "/jobs": "POST",
}

#: Endpoints the per-client quota meters (control-plane probes stay free).
_QUOTA_PATHS = frozenset({"/construct", "/simulate", "/sweep", "/jobs"})

#: Errors that mean the request itself is bad (HTTP 400, never retried).
_CLIENT_ERRORS = (ValidationError, ConfigurationError, ConstructionError)


@dataclass
class ServiceConfig:
    """Operator-facing knobs of one daemon."""

    host: str = "127.0.0.1"
    port: int = 8787  # 0 = pick an ephemeral port (reported in the log)
    #: Maximum concurrently *admitted* computations; beyond it new
    #: (non-coalesced) work is rejected with 429.
    queue_limit: int = 8
    #: Per-request deadline in seconds (each waiter's own clock).
    request_timeout: float = 600.0
    #: How long a shutdown waits for in-flight work before giving up.
    drain_timeout: float = 60.0
    #: Idle keep-alive connections are closed after this many seconds.
    keepalive_timeout: float = 75.0
    #: Worker processes for ``/sweep`` and ``/jobs`` fan-out (1 =
    #: in-process, serial); also the chunks one job keeps in flight.
    jobs: int = 1
    #: Attach the on-disk bench cache (``None`` = memory-only service).
    cache_dir: str | None = None
    use_cache: bool = False
    #: 429 responses advertise this ``Retry-After`` (seconds).
    retry_after: float = 1.0
    #: Per-client compute-request quota (requests/minute; 0 = unlimited).
    #: Clients identify via ``X-Client-Id`` or their peer address.
    quota_per_minute: int = 0
    #: Where log lines go (default ``sys.stderr``).
    log_stream: object = None


class _HttpError(Exception):
    """Malformed request; carries the status to answer with."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class _HttpRequest:
    method: str
    path: str
    version: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        token = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return token == "keep-alive"
        return token != "close"


class ReproService:
    """One daemon: shared caches, batching layer, job scheduler, HTTP front.

    Owns every transport concern — request framing, keep-alive,
    signal-driven graceful drain, per-client quotas — and the compute
    paths behind them.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.stats = ServiceStats()
        self.single_flight = SingleFlight(self.stats)
        self.admission = AdmissionGate(config.queue_limit, self.stats)
        self.quotas = (
            ClientQuotas(config.quota_per_minute, self.stats)
            if config.quota_per_minute
            else None
        )
        self.replies = ReplyCache()
        self.cache = (
            BenchCache(config.cache_dir)
            if (config.use_cache or config.cache_dir)
            else None
        )
        # More chunks in flight than pool workers would only queue behind
        # the compute lock or the pool.
        self.scheduler = JobScheduler(
            self._submit_chunk, chunk_concurrency=max(1, config.jobs)
        )
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_event = asyncio.Event()
        self._conn_tasks: set[asyncio.Task] = set()
        #: Connections waiting for their next request line; a drain
        #: closes them at once.
        self._idle: set[asyncio.StreamWriter] = set()
        self._close_idle = False
        self._draining = False

        self._executor = ThreadPoolExecutor(
            max_workers=config.queue_limit,
            thread_name_prefix="repro-service",
        )
        # Warm engines, resolved through the registry: one inline engine
        # per simulate scoring (each caches sorters per config/layout),
        # one serial engine for unpooled sweeps (its runner table
        # is the warm state the old module-global table provided), and
        # with jobs > 1 a pool engine over a warm process pool, replaced
        # whole when one of its workers dies.
        self._engines: dict[str, ExecutionEngine] = {}
        self._serial_points = create_engine("inline")
        self._pool_points = (
            self._new_pool_engine() if config.jobs > 1 else None
        )
        self._pool_lock = threading.Lock()
        self._compute_lock = threading.Lock()

    # -- logging -------------------------------------------------------------

    def _log(self, message: str) -> None:
        stream = self.config.log_stream or sys.stderr
        try:
            stream.write(f"[repro.service] {message}\n")
            stream.flush()
        except (OSError, ValueError):
            pass

    def _log_unhandled(self, exc: Exception) -> None:
        self._log(
            "unhandled error: "
            + "".join(traceback.format_exception(exc)).rstrip()
        )

    # -- lifecycle -----------------------------------------------------------

    async def start(self):
        """Bind the listener (resolving ``port=0``)."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        cache = str(self.cache.cache_dir) if self.cache else "off"
        self._log(
            f"listening on http://{self.config.host}:{self.port} "
            f"(queue_limit={self.config.queue_limit}, "
            f"jobs={self.config.jobs}, cache={cache})"
        )
        return self

    def request_shutdown(self) -> None:
        """Begin a graceful drain; safe to call from any thread.

        A no-op once the loop is gone, so teardown code need not track
        whether the daemon already exited.
        """
        if self._loop is None or self._loop.is_closed():
            return
        try:
            self._loop.call_soon_threadsafe(self._shutdown_event.set)
        except RuntimeError:
            pass  # loop closed between the check and the call

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig,
                    lambda s=sig: (
                        self._log(f"received {signal.Signals(s).name}, draining"),
                        self._shutdown_event.set(),
                    ),
                )
            except (NotImplementedError, ValueError, RuntimeError):
                # Not the main thread (tests) or unsupported platform —
                # shutdown is still reachable via POST /shutdown.
                return

    async def serve_until_shutdown(self) -> bool:
        """Serve until SIGTERM/SIGINT or ``POST /shutdown``; then drain.

        Returns ``True`` when every in-flight computation and connection
        finished inside ``drain_timeout``.
        """
        self._install_signal_handlers()
        await self._shutdown_event.wait()
        self._draining = True
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()

        began = time.monotonic()
        in_flight = len(self.single_flight.tasks)
        self._log(f"draining: {in_flight} in-flight computation(s)")
        drained = await self.single_flight.drain(self.config.drain_timeout)
        # No computation is left to answer a request an idle keep-alive
        # client could still send, so close those connections now; a
        # handler that finishes its request after this closes too.
        self._close_idle = True
        for writer in list(self._idle):
            writer.close()
        # Let connection handlers flush their final responses, then
        # cancel whatever is still stuck mid-request.
        if self._conn_tasks:
            grace = max(
                1.0, self.config.drain_timeout - (time.monotonic() - began)
            )
            _, pending = await asyncio.wait(
                set(self._conn_tasks), timeout=grace
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)

        # A drain timeout means a sort is still running in the executor;
        # don't block the loop waiting on it (the interpreter will still
        # join the thread at exit, but the caller gets its exit code now).
        self._executor.shutdown(wait=drained, cancel_futures=True)
        if self._pool_points is not None:
            self._pool_points.pool.shutdown(wait=drained, cancel_futures=True)
        self._log(
            "drained cleanly"
            if drained
            else f"drain timed out after {self.config.drain_timeout}s"
        )
        return drained

    # -- connection handling -------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self.stats.connections += 1
        try:
            await self._serve_connection(reader, writer)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        peer_host = peer[0] if isinstance(peer, tuple) else str(peer or "?")
        timeout = self.config.keepalive_timeout
        while not self._close_idle:
            self._idle.add(writer)
            try:
                line = await asyncio.wait_for(reader.readline(), timeout)
            except asyncio.TimeoutError:
                return
            finally:
                self._idle.discard(writer)
            try:
                request = await asyncio.wait_for(
                    _read_request(reader, line), timeout
                )
            except asyncio.TimeoutError:
                return
            except _HttpError as exc:
                writer.write(
                    _render_response(
                        exc.status, {"error": str(exc)}, {}, keep_alive=False
                    )
                )
                await writer.drain()
                return
            if request is None:
                return
            began = time.monotonic()
            client = request.headers.get("x-client-id") or peer_host
            status, payload, extra = await self._dispatch(request, client)
            keep = request.keep_alive and not self._draining
            writer.write(_render_response(status, payload, extra, keep_alive=keep))
            await writer.drain()
            self._log(
                f"{request.method} {request.path} -> {status} "
                f"({time.monotonic() - began:.3f}s)"
            )
            if not keep:
                return

    # -- routing -------------------------------------------------------------

    async def _dispatch(
        self, request: _HttpRequest, client: str
    ) -> tuple[int, dict | str | bytes, dict]:
        path = request.path.split("?", 1)[0]
        if path.startswith("/jobs/"):
            self.stats.requests["/jobs/<id>"] += 1
            if request.method != "GET":
                return 405, {"error": "/jobs/<id> expects GET"}, {"Allow": "GET"}
            job_id = path[len("/jobs/") :]
            status = self.scheduler.status(job_id)
            if status is None:
                return 404, {"error": f"unknown job {job_id!r}"}, {}
            return 200, status, {}

        self.stats.requests[path] += 1
        expected = _ENDPOINTS.get(path)
        if expected is None:
            return 404, {"error": f"unknown endpoint {path!r}"}, {}
        if request.method != expected:
            return (
                405,
                {"error": f"{path} expects {expected}"},
                {"Allow": expected},
            )

        if path == "/healthz":
            return (
                200,
                {
                    "status": "draining" if self._draining else "ok",
                    "uptime_seconds": round(self.stats.uptime_seconds, 3),
                },
                {},
            )
        if path == "/stats":
            return 200, self._stats_payload(), {}
        if path == "/metrics":
            return (
                200,
                render_metrics(self._stats_payload()),
                {"Content-Type": _METRICS_CONTENT_TYPE},
            )
        if path == "/shutdown":
            self._log("shutdown requested via POST /shutdown")
            self.request_shutdown()
            return (
                200,
                {"status": "draining", "in_flight": self.stats.in_flight},
                {},
            )

        rejected = self._quota_reject(client) if path in _QUOTA_PATHS else None
        if rejected is not None:
            return rejected

        try:
            body = json.loads(request.body) if request.body else {}
        except ValueError:
            self.stats.validation_errors += 1
            return 400, {"error": "body is not valid JSON", "kind": "validation"}, {}

        if path == "/jobs":
            return self._submit_job(body)
        if path == "/construct":
            return await self._serve_compute(
                path,
                lambda: ConstructRequest.from_payload(body),
                self._compute_construct,
            )
        if path == "/simulate":
            return await self._serve_compute(
                path,
                lambda: SimulateRequest.from_payload(body),
                self._compute_simulate,
            )
        return await self._serve_compute(
            path, lambda: SweepRequest.from_payload(body), self._compute_sweep
        )

    def _quota_reject(self, client: str) -> tuple[int, dict, dict] | None:
        """A 429 triple when ``client`` is out of quota, else ``None``."""
        if self.quotas is None:
            return None
        wait = self.quotas.try_consume(client)
        if wait is None:
            return None
        return (
            429,
            {
                "error": (
                    f"client quota of {self.quotas.per_minute} "
                    "compute requests/minute exhausted"
                ),
                "retry_after": round(wait, 3),
            },
            {"Retry-After": f"{max(wait, 0.001):.3f}"},
        )

    def _draining_reply(self) -> tuple[int, dict, dict]:
        return (
            503,
            {"error": "service is draining"},
            {"Retry-After": f"{self.config.retry_after:g}"},
        )

    def _submit_job(self, body) -> tuple[int, dict, dict]:
        if self._draining:
            return self._draining_reply()
        try:
            ack = self.scheduler.submit(body)
        except _CLIENT_ERRORS as exc:
            self.stats.validation_errors += 1
            return 400, {"error": str(exc), "kind": "validation"}, {}
        self.stats.completed += 1
        return 202, {"ok": True, **ack}, {}

    async def _run_compute(self, endpoint: str, request, compute: Callable):
        """Reply cache → single flight → admission → executor.

        Returns ``(head, coalesced)``: the encoded reply up to its
        ``coalesced`` flag (:func:`~repro.service.result_cache.reply_head`)
        and whether this caller joined an in-flight computation. A
        ``/sweep`` or ``/construct`` repeat is answered from the reply
        cache right here, on the loop; a miss is computed, encoded and
        stored by the leader's executor thread. ``/simulate`` does its
        own lookup in :meth:`_compute_simulate`.
        """
        key = request.coalesce_key()
        keyed = endpoint != "/simulate"
        if keyed:
            head = self.replies.get(endpoint, key)
            if head is not None:
                return head, False

        def work():
            head = compute(request)
            if keyed:
                self.replies.put(endpoint, key, head)
            return head

        loop = asyncio.get_running_loop()

        async def start():
            return await loop.run_in_executor(self._executor, work)

        return await self.single_flight.run(
            key,
            start,
            gate=self.admission,
            timeout=self.config.request_timeout,
        )

    async def _serve_compute(
        self, endpoint: str, parse: Callable, compute: Callable
    ) -> tuple[int, dict | bytes, dict]:
        try:
            request = parse()
        except _CLIENT_ERRORS as exc:
            self.stats.validation_errors += 1
            return 400, {"error": str(exc), "kind": "validation"}, {}
        if self._draining:
            return self._draining_reply()

        try:
            head, coalesced = await self._run_compute(endpoint, request, compute)
        except BlockingIOError:
            return (
                429,
                {
                    "error": "admission queue full",
                    "retry_after": self.config.retry_after,
                },
                {"Retry-After": f"{self.config.retry_after:g}"},
            )
        except asyncio.TimeoutError:
            self.stats.timeouts += 1
            return (
                504,
                {
                    "error": "request timed out after "
                    f"{self.config.request_timeout:g}s (still computing "
                    "for any coalesced waiters)"
                },
                {},
            )
        except _CLIENT_ERRORS as exc:
            self.stats.validation_errors += 1
            return 400, {"error": str(exc), "kind": "validation"}, {}
        except ReproError as exc:
            self.stats.internal_errors += 1
            return 500, {"error": str(exc), "kind": "internal"}, {}
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self.stats.internal_errors += 1
            self._log_unhandled(exc)
            return 500, {"error": str(exc), "kind": "internal"}, {}

        self.stats.completed += 1
        return 200, reply_body(head, coalesced), {}

    async def _submit_chunk(self, payload: dict) -> dict:
        """Scheduler hook: run one job chunk exactly like a direct ``/sweep``.

        The chunk takes the same single flight, admission gate and
        :meth:`_compute_sweep`, so it coalesces with an identical
        in-flight ``/sweep``. A rejected payload raises its validation
        error (the scheduler fails the chunk for good); every other
        failure — full gate, deadline, a dead pool worker, draining —
        raises :class:`~repro.errors.ServiceError`, which requeues it.
        """
        if self._draining:
            raise ServiceError("service is draining")
        try:
            head, _ = await self._run_compute(
                "/sweep", SweepRequest.from_payload(payload), self._compute_sweep
            )
        except (*_CLIENT_ERRORS, ServiceError):
            raise
        except Exception as exc:  # noqa: BLE001 - a 429/504/5xx on the wire
            expected = (BlockingIOError, asyncio.TimeoutError, ReproError)
            if not isinstance(exc, expected):
                self._log_unhandled(exc)
            raise ServiceError(f"chunk failed: {exc!r}") from exc
        return json.loads(reply_body(head, False))

    # -- compute (executor threads) -----------------------------------------

    def _engine_for(self, scoring: str) -> ExecutionEngine:
        """The warm inline engine serving one simulate scoring.

        Resolved through the registry's scoring→engine mapping and cached
        here, so each engine's sorters (and the analytic engine's caches)
        are reused across requests.
        """
        engine = self._engines.get(scoring)
        if engine is None:
            engine = create_engine(engine_for_scoring(scoring))
            self._engines[scoring] = engine
        return engine

    def _compute_construct(self, request: ConstructRequest) -> bytes:
        data = worst_case_permutation(request.config, request.num_elements)
        self.stats.constructs_executed += 1
        values = (
            data.tolist() if request.encoding == "json" else array_to_obj(data)
        )
        return reply_head(
            {
                "config": config_to_obj(request.config),
                "num_elements": int(request.num_elements),
                "encoding": request.encoding,
                "values": values,
            }
        )

    def _compute_simulate(self, request: SimulateRequest) -> bytes:
        """Generate the input, then serve its sort from the reply cache
        or run it. Only the sort holds the compute lock; ``sorted_ok``
        compares this request's own input with the entry's values."""
        data = generate(
            request.input_name,
            request.config,
            request.num_elements,
            seed=request.seed,
        )
        key = simulate_key(request, data)
        entry = self.replies.get("/simulate", key)
        if entry is None:
            with self._compute_lock:
                result = self._engine_for(request.scoring).run_sort(
                    SortTask(
                        config=request.config,
                        input_name=request.input_name,
                        num_elements=request.num_elements,
                        score_blocks=request.score_blocks,
                        seed=request.seed,
                        values=data,
                        mitigation=request.mitigation,
                    )
                )
                self.stats.sorts_executed += 1
            entry = SimulateEntry.encode(result)
            self.replies.put("/simulate", key, entry)
        sorted_ok = bool(np.array_equal(np.sort(data), entry.values))
        return entry.reply_head(sorted_ok, request.include_values)

    def _compute_sweep(self, request: SweepRequest) -> bytes:
        cache_dir = str(self.cache.cache_dir) if self.cache else None
        items = [
            WorkItem(
                config=request.config,
                device=request.device,
                input_name=name,
                num_elements=n,
                exact_threshold=request.exact_threshold,
                score_blocks=request.score_blocks,
                seed=request.seed,
                scoring=request.scoring,
                mitigation=request.mitigation,
                cache_dir=cache_dir,
                use_cache=self.cache is not None,
            )
            for name in request.input_names
            for n in request.sizes
        ]
        progress = lambda event: self._log(event.describe())  # noqa: E731
        pool_points = self._pool_points
        if pool_points is not None:
            try:
                points = pool_points.run_points(items, progress=progress)
            except BrokenProcessPool as exc:
                self._replace_pool(pool_points)
                raise ServiceError(
                    f"a sweep worker process died ({exc}); the pool was "
                    "replaced, retry the request"
                ) from exc
        else:
            # The serial engine's runner table is shared across every
            # unpooled sweep, so serialize it like simulations.
            with self._compute_lock:
                points = self._serial_points.run_points(
                    items, progress=progress
                )
        self.stats.sweeps_executed += 1
        return reply_head(
            {
                "points": [point_to_obj(p) for p in points],
                "inputs": list(request.input_names),
                "sizes": list(request.sizes),
            }
        )

    def _new_pool_engine(self) -> ExecutionEngine:
        # Spawn, not fork: workers start on demand mid-request, and a
        # forked one would inherit the listener and every open client
        # socket (and fork a multi-threaded process).
        return create_engine(
            "pool",
            pool=ProcessPoolExecutor(
                max_workers=self.config.jobs,
                mp_context=multiprocessing.get_context("spawn"),
            ),
        )

    def _replace_pool(self, broken: ExecutionEngine) -> None:
        """Swap a fresh worker pool in for ``broken``'s dead one.

        Every sweep that was running on the dead pool lands here; only
        the first swaps, so the pool is replaced once.
        """
        with self._pool_lock:
            if self._pool_points is broken:
                self._pool_points = self._new_pool_engine()
                self._log("a sweep worker process died; pool replaced")
        broken.pool.shutdown(wait=False, cancel_futures=True)

    # -- stats ---------------------------------------------------------------

    def _stats_payload(self) -> dict:
        payload = self.stats.snapshot()
        payload["queue_limit"] = self.config.queue_limit
        payload["pool_workers"] = self.config.jobs
        payload["quota_per_minute"] = self.config.quota_per_minute
        payload.update(self.scheduler.stats())
        # Under "memo" for existing readers: the reply cache's totals,
        # then its per-endpoint split.
        payload["memo"] = self.replies.stats()
        payload["reply_cache"] = self.replies.endpoint_stats()
        if self.cache is not None:
            disk = self.cache.stats()
            payload["bench_cache"] = {
                "cache_dir": disk.cache_dir,
                "point_entries": disk.point_entries,
                "rate_entries": disk.rate_entries,
                "total_bytes": disk.total_bytes,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
            }
        else:
            payload["bench_cache"] = None
        return payload


# -- HTTP framing -----------------------------------------------------------


async def _read_request(
    reader: asyncio.StreamReader, line: bytes
) -> _HttpRequest | None:
    """Parse the request whose request ``line`` was just read; ``None``
    on a clean EOF before the first byte."""
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _HttpError(400, "malformed request line")
    method, path, version = parts

    headers: dict[str, str] = {}
    total = len(line)
    while True:
        line = await reader.readline()
        if not line:
            return None  # peer hung up mid-headers
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            raise _HttpError(431, "headers too large")
        if line in (b"\r\n", b"\n"):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise _HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    raw_length = headers.get("content-length", "0")
    try:
        length = int(raw_length)
    except ValueError:
        raise _HttpError(400, f"bad Content-Length {raw_length!r}") from None
    if length < 0 or length > _MAX_BODY_BYTES:
        raise _HttpError(413, f"body of {length} bytes exceeds the limit")
    body = await reader.readexactly(length) if length else b""
    return _HttpRequest(
        method=method, path=path, version=version, headers=headers, body=body
    )


def _render_response(
    status: int, payload: dict | str | bytes, extra: dict, *, keep_alive: bool
) -> bytes:
    """Frame one response. Dict payloads render as JSON and bytes are
    JSON already encoded; string payloads are sent verbatim as text
    (``/metrics``); ``extra`` may override the ``Content-Type``."""
    headers = dict(extra)
    if isinstance(payload, str):
        body = payload.encode("utf-8")
        content_type = headers.pop("Content-Type", "text/plain; charset=utf-8")
    else:
        body = (
            payload
            if isinstance(payload, bytes)
            else json.dumps(payload).encode("utf-8")
        )
        content_type = headers.pop("Content-Type", "application/json")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
        "Server: repro-mergesort",
    ]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


# -- entry points -----------------------------------------------------------


async def run_service(
    config: ServiceConfig,
    *,
    on_started: Callable[[ReproService], None] | None = None,
) -> bool:
    """Start a service and serve until shutdown; ``True`` on a clean drain.

    ``on_started`` runs inside the event loop right after the listener is
    bound — tests use it to learn the ephemeral port and keep a handle
    for :meth:`ReproService.request_shutdown`.
    """
    service = ReproService(config)
    await service.start()
    if on_started is not None:
        on_started(service)
    return await service.serve_until_shutdown()


def serve_forever(config: ServiceConfig) -> int:
    """Blocking entry point used by ``repro-mergesort serve``.

    Returns a process exit code: 0 after a clean drain, 1 when the drain
    timed out with work still in flight.
    """
    return 0 if asyncio.run(run_service(config)) else 1
