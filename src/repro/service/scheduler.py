"""Chunked job scheduler: manifests → chunks → the daemon, with requeue.

A *job manifest* is a ``/sweep`` payload plus scheduler knobs — the
whole inputs×sizes grid a client wants computed, too large to sit in
one HTTP request/response cycle comfortably. ``POST /jobs`` on the
daemon splits it into **chunks** (one input family × a contiguous
slice of sizes, each a small self-contained ``/sweep`` body), runs the
chunks through the daemon's sweep path with bounded concurrency, and
tracks a :class:`Job` the client polls with the am-I-done probe
``GET /jobs/<id>``.

Failure semantics draw the classic scheduler line between the two error
families:

* **worker failures** (:class:`~repro.errors.ServiceError`: a full
  admission gate, a deadline, a sweep pool worker killed mid-manifest)
  requeue the chunk, up to ``max_retries`` extra attempts per chunk.
  Chunks are deterministic pure computations, so a retry produces the
  identical points.
* **validation failures** (:class:`~repro.errors.ValidationError`,
  HTTP 4xx) fail the chunk permanently — resending a malformed payload
  can never succeed — and with it the job.

Chunk payloads are rebuilt in canonical form from the parsed manifest,
so two manifests phrasing the same grid differently (``preset`` vs
``config``, ``max_elements`` vs explicit ``sizes``) produce chunks with
identical coalescing fingerprints — single-flight and the disk cache
both apply to scheduled work exactly as to direct ``/sweep`` calls.

The scheduler itself is transport-agnostic: it drives an async
``submit_chunk(payload) -> reply`` callable the daemon provides, which
keeps this module unit-testable without sockets.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import Counter, deque
from dataclasses import dataclass, field

from repro.errors import ReproError, ServiceError, ValidationError
from repro.service.protocol import SweepRequest
from repro.sort.serialize import config_to_obj

__all__ = ["Chunk", "Job", "JobScheduler", "split_manifest"]

#: Default sizes per chunk; small enough that a killed worker loses
#: little progress, large enough to amortize per-request overhead.
DEFAULT_CHUNK_SIZES = 4

#: Default extra attempts per chunk after a worker failure.
DEFAULT_MAX_RETRIES = 2

#: Scheduler-only manifest keys, stripped before ``/sweep`` validation.
_SCHEDULER_KEYS = ("chunk_sizes", "max_retries", "mitigations")


@dataclass
class Chunk:
    """One (mitigation, input family) × a contiguous slice of sizes."""

    index: int
    input_name: str
    sizes: tuple[int, ...]
    #: Canonical ``/sweep`` body computing exactly this chunk.
    payload: dict
    mitigation: str = "none"
    attempts: int = 0
    status: str = "pending"  # pending | running | done | failed
    points: list | None = None
    error: str | None = None


@dataclass
class Job:
    """A submitted manifest and the fate of its chunks."""

    job_id: str
    input_names: tuple[str, ...]
    sizes: tuple[int, ...]
    chunks: list[Chunk]
    max_retries: int
    #: Mitigation layouts swept by this job (manifest ``mitigations``
    #: key; a plain manifest sweeps only its own ``mitigation`` field).
    mitigations: tuple[str, ...] = ("none",)
    status: str = "running"  # running | done | failed
    #: Total requeues across all chunks (worker-failure recoveries).
    retries: int = 0

    def chunk_counts(self) -> dict[str, int]:
        counts = Counter(chunk.status for chunk in self.chunks)
        return {
            state: counts.get(state, 0)
            for state in ("pending", "running", "done", "failed")
        }


def _scheduler_int(payload: dict, name: str, default: int, minimum: int) -> int:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name!r} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name!r} must be >= {minimum}, got {value}")
    return value


def split_manifest(
    body: dict,
) -> tuple[SweepRequest, list[Chunk], int]:
    """Validate a manifest and split its grid into canonical chunks.

    Returns ``(parsed sweep request, chunks, max_retries)``. Chunk
    order is mitigation-major, then input-major with contiguous size
    slices, so concatenating chunk results in index order reproduces
    the exact item order per mitigation that a single ``/sweep`` of the
    whole manifest would return.

    A manifest may carry a scheduler-only ``mitigations`` list (e.g.
    ``["none", "padding:1", "cfree-sort"]``) to sweep the same grid
    under several layout defenses — the matrix experiment's service
    leg. It is exclusive with the single ``mitigation`` field, since
    each chunk carries exactly one layout.
    """
    if not isinstance(body, dict):
        raise ValidationError("/jobs body must be a JSON object")
    chunk_sizes = _scheduler_int(
        body, "chunk_sizes", DEFAULT_CHUNK_SIZES, minimum=1
    )
    max_retries = _scheduler_int(
        body, "max_retries", DEFAULT_MAX_RETRIES, minimum=0
    )
    mitigations = _mitigations_field(body)
    sweep_body = {
        key: value
        for key, value in body.items()
        if key not in _SCHEDULER_KEYS
    }
    request = SweepRequest.from_payload(sweep_body)
    if mitigations is None:
        mitigations = (request.mitigation,)

    base = {
        "config": config_to_obj(request.config),
        "device": request.device.name,
        "exact_threshold": request.exact_threshold,
        "score_blocks": request.score_blocks,  # null = score every block
        "seed": request.seed,
        "scoring": request.scoring,
    }
    chunks: list[Chunk] = []
    for mitigation in mitigations:
        for name in request.input_names:
            for start in range(0, len(request.sizes), chunk_sizes):
                sizes = request.sizes[start : start + chunk_sizes]
                payload = dict(base)
                payload["inputs"] = [name]
                payload["sizes"] = list(sizes)
                payload["mitigation"] = mitigation
                chunks.append(
                    Chunk(
                        index=len(chunks),
                        input_name=name,
                        sizes=sizes,
                        payload=payload,
                        mitigation=mitigation,
                    )
                )
    return request, chunks, max_retries


def _mitigations_field(body: dict) -> tuple[str, ...] | None:
    """Canonicalized ``mitigations`` list, or ``None`` when absent."""
    from repro.mitigation.registry import check_mitigation

    raw = body.get("mitigations")
    if raw is None:
        return None
    if not isinstance(raw, list) or not raw:
        raise ValidationError(
            "'mitigations' must be a nonempty list of spec strings"
        )
    if "mitigation" in body:
        raise ValidationError(
            "'mitigations' and 'mitigation' are exclusive"
        )
    specs = []
    for value in raw:
        if not isinstance(value, str):
            raise ValidationError(
                f"'mitigations' entries must be spec strings, got {value!r}"
            )
        specs.append(check_mitigation(value, field="'mitigations'"))
    if len(set(specs)) != len(specs):
        raise ValidationError("'mitigations' entries must be unique")
    return tuple(specs)


class JobScheduler:
    """Drives chunks through ``submit_chunk`` with retry and requeue.

    Parameters
    ----------
    submit_chunk:
        ``async (payload: dict) -> reply dict`` — the daemon's run of
        one ``/sweep`` chunk. Must raise
        :class:`~repro.errors.ServiceError` on worker failure and
        :class:`~repro.errors.ValidationError` on a rejected payload.
    chunk_concurrency:
        Chunks of one job in flight at once. Overall concurrency is
        still governed by the daemon's admission gate; this only bounds
        how hard a single job pushes.
    """

    def __init__(self, submit_chunk, *, chunk_concurrency: int = 4):
        if chunk_concurrency < 1:
            raise ValidationError(
                f"chunk_concurrency must be >= 1, got {chunk_concurrency}"
            )
        self._submit_chunk = submit_chunk
        self._concurrency = chunk_concurrency
        self._jobs: dict[str, Job] = {}
        self._seq = itertools.count(1)
        self._tasks: set[asyncio.Task] = set()
        #: Total chunk requeues across every job (exported by /metrics).
        self.chunk_retries = 0

    # -- submission ----------------------------------------------------------

    def submit(self, body: dict) -> dict:
        """Split, register, and launch one manifest; returns the ack."""
        request, chunks, max_retries = split_manifest(body)
        job_id = f"job-{next(self._seq)}-{request.coalesce_key()[:12]}"
        job = Job(
            job_id=job_id,
            input_names=request.input_names,
            sizes=request.sizes,
            chunks=chunks,
            max_retries=max_retries,
            mitigations=tuple(dict.fromkeys(c.mitigation for c in chunks)),
        )
        self._jobs[job_id] = job
        task = asyncio.get_running_loop().create_task(self._run_job(job))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return {
            "job_id": job_id,
            "chunks": len(chunks),
            "max_retries": max_retries,
        }

    async def _run_job(self, job: Job) -> None:
        pending: deque[Chunk] = deque(job.chunks)
        active: set[asyncio.Task] = set()
        try:
            while pending or active:
                while pending and len(active) < self._concurrency:
                    chunk = pending.popleft()
                    chunk.status = "running"
                    active.add(
                        asyncio.get_running_loop().create_task(
                            self._run_chunk(job, chunk)
                        )
                    )
                done, active = await asyncio.wait(
                    active, return_when=asyncio.FIRST_COMPLETED
                )
                for finished in done:
                    chunk, requeue = finished.result()
                    if requeue:
                        pending.append(chunk)
            job.status = (
                "failed"
                if any(c.status == "failed" for c in job.chunks)
                else "done"
            )
        except asyncio.CancelledError:
            # Daemon shutting down mid-job: mark it failed so a polling
            # client stops waiting, then re-raise for the loop teardown.
            job.status = "failed"
            for task in active:
                task.cancel()
            raise

    async def _run_chunk(self, job: Job, chunk: Chunk) -> tuple[Chunk, bool]:
        try:
            reply = await self._submit_chunk(chunk.payload)
        except ServiceError as exc:
            # Worker failure (dead pool worker, 5xx): requeue within budget.
            chunk.attempts += 1
            if chunk.attempts <= job.max_retries:
                chunk.status = "pending"
                job.retries += 1
                self.chunk_retries += 1
                return chunk, True
            chunk.status = "failed"
            chunk.error = f"gave up after {chunk.attempts} attempts: {exc}"
            return chunk, False
        except (ValidationError, ReproError) as exc:
            # The payload itself is bad; a retry cannot change that.
            chunk.status = "failed"
            chunk.error = str(exc)
            return chunk, False
        chunk.points = list(reply.get("points", []))
        chunk.status = "done"
        return chunk, False

    # -- probes --------------------------------------------------------------

    def status(self, job_id: str) -> dict | None:
        """The am-I-done probe body for one job; ``None`` if unknown."""
        job = self._jobs.get(job_id)
        if job is None:
            return None
        done = job.status != "running"
        payload = {
            "job_id": job.job_id,
            "status": job.status,
            "done": done,
            "chunks": {"total": len(job.chunks), **job.chunk_counts()},
            "retries": job.retries,
        }
        if job.status == "failed":
            payload["errors"] = [
                {"chunk": c.index, "input": c.input_name, "error": c.error}
                for c in job.chunks
                if c.status == "failed"
            ]
        if job.status == "done":
            # Chunks are mitigation-major then input-major contiguous
            # slices, so index-order concatenation is exactly one big
            # /sweep's item order, repeated per mitigation.
            points: list = []
            for chunk in job.chunks:
                points.extend(chunk.points or [])
            payload["points"] = points
            payload["inputs"] = list(job.input_names)
            payload["sizes"] = list(job.sizes)
            if job.mitigations != ("none",):
                payload["mitigations"] = list(job.mitigations)
        return payload

    def stats(self) -> dict:
        """Aggregate job/chunk gauges for ``/stats`` and ``/metrics``."""
        jobs = Counter(job.status for job in self._jobs.values())
        chunks: Counter = Counter()
        for job in self._jobs.values():
            chunks.update(job.chunk_counts())
        return {
            "jobs": {
                state: jobs.get(state, 0)
                for state in ("running", "done", "failed")
            },
            "chunks": {
                state: chunks.get(state, 0)
                for state in ("pending", "running", "done", "failed")
            },
            "chunk_retries": self.chunk_retries,
        }
