"""The chunked job scheduler: manifests, requeue semantics, am-I-done.

The unit half drives :class:`JobScheduler` against a fake
``submit_chunk`` (no sockets): chunking shape, canonical fingerprints,
worker-failure requeue vs validation-failure permanence. The
integration half runs real manifests through a real daemon — including
the acceptance scenario: a sweep pool worker process that dies
mid-manifest has its chunks requeued, and the job still completes on a
fresh pool.
"""

import asyncio
import os
import signal
import threading
import time

import pytest

from repro.errors import ServiceError, ValidationError
from repro.service.protocol import SweepRequest, point_from_obj
from repro.service.scheduler import JobScheduler, split_manifest
from repro.sort.serialize import config_to_obj
from tests.service.conftest import small_config

CFG = small_config()
CFG_OBJ = config_to_obj(CFG)


def manifest(sizes=None, inputs=("random", "worst-case"), **extra):
    body = {
        "config": CFG_OBJ,
        "inputs": list(inputs),
        "sizes": sizes or [CFG.tile_size * 2, CFG.tile_size * 4],
        "score_blocks": 2,
    }
    body.update(extra)
    return body


class TestSplitManifest:
    def test_chunks_are_input_major_contiguous(self):
        sizes = [CFG.tile_size * k for k in (2, 4, 8)]
        _, chunks, max_retries = split_manifest(
            manifest(sizes=sizes, chunk_sizes=2)
        )
        assert max_retries == 2  # the default
        assert [
            (c.input_name, c.sizes) for c in chunks
        ] == [
            ("random", tuple(sizes[:2])),
            ("random", tuple(sizes[2:])),
            ("worst-case", tuple(sizes[:2])),
            ("worst-case", tuple(sizes[2:])),
        ]
        assert [c.index for c in chunks] == [0, 1, 2, 3]

    def test_chunk_payloads_are_valid_sweep_bodies(self):
        _, chunks, _ = split_manifest(manifest(chunk_sizes=1))
        for chunk in chunks:
            parsed = SweepRequest.from_payload(chunk.payload)
            assert parsed.input_names == (chunk.input_name,)
            assert parsed.sizes == chunk.sizes

    def test_mitigations_expand_mitigation_major(self):
        """A ``mitigations`` list crosses the whole sweep per layout,
        mitigation-major, so index-order concatenation yields one
        contiguous sweep per spec (what the job report renders)."""
        sizes = [CFG.tile_size * k for k in (2, 4)]
        _, chunks, _ = split_manifest(
            manifest(sizes=sizes, chunk_sizes=2,
                     mitigations=["none", "cfree-sort"])
        )
        assert [
            (c.mitigation, c.input_name) for c in chunks
        ] == [
            ("none", "random"),
            ("none", "worst-case"),
            ("cfree-sort", "random"),
            ("cfree-sort", "worst-case"),
        ]
        for chunk in chunks:
            parsed = SweepRequest.from_payload(chunk.payload)
            assert parsed.mitigation == chunk.mitigation

    def test_mitigations_entries_canonicalized(self):
        _, chunks, _ = split_manifest(manifest(mitigations=["padding"]))
        assert {c.mitigation for c in chunks} == {"padding:1"}

    def test_single_mitigation_field_still_works(self):
        _, chunks, _ = split_manifest(manifest(mitigation="cfree-permute"))
        assert {c.mitigation for c in chunks} == {"cfree-permute"}

    def test_mitigations_validated(self):
        with pytest.raises(ValidationError, match="nonempty list"):
            split_manifest(manifest(mitigations=[]))
        with pytest.raises(ValidationError, match="known backends"):
            split_manifest(manifest(mitigations=["magic"]))
        with pytest.raises(ValidationError, match="unique"):
            split_manifest(manifest(mitigations=["padding", "padding:1"]))
        with pytest.raises(ValidationError, match="exclusive"):
            split_manifest(
                manifest(mitigations=["none"], mitigation="cfree-sort")
            )
        with pytest.raises(ValidationError, match="padding"):
            split_manifest(manifest(mitigations=["none"], padding=1))

    def test_equivalent_manifests_produce_identical_fingerprints(self):
        """Two phrasings of the same grid (explicit config vs the same
        grid again with scheduler knobs attached) chunk to identical
        coalescing keys — single flight and the disk cache
        apply across manifest authors."""
        _, a, _ = split_manifest(manifest(chunk_sizes=2))
        _, b, _ = split_manifest(manifest(chunk_sizes=2, max_retries=9))
        keys = lambda chunks: [  # noqa: E731
            SweepRequest.from_payload(c.payload).coalesce_key()
            for c in chunks
        ]
        assert keys(a) == keys(b)

    def test_scheduler_knobs_validated(self):
        with pytest.raises(ValidationError, match="chunk_sizes"):
            split_manifest(manifest(chunk_sizes=0))
        with pytest.raises(ValidationError, match="chunk_sizes"):
            split_manifest(manifest(chunk_sizes=True))
        with pytest.raises(ValidationError, match="max_retries"):
            split_manifest(manifest(max_retries=-1))
        with pytest.raises(ValidationError, match="max_retries"):
            split_manifest(manifest(max_retries="lots"))

    def test_sweep_validation_still_applies(self):
        with pytest.raises(ValidationError, match="input"):
            split_manifest(manifest(inputs=["made-up"]))
        with pytest.raises(ValidationError):
            split_manifest("not a dict")


def drive(submit_chunk, body, *, chunk_concurrency=4, timeout=10.0):
    """Run one job to completion on a private loop; returns (scheduler,
    final status dict)."""

    async def run():
        scheduler = JobScheduler(
            submit_chunk, chunk_concurrency=chunk_concurrency
        )
        ack = scheduler.submit(body)
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            status = scheduler.status(ack["job_id"])
            if status["done"]:
                return scheduler, status
            if asyncio.get_running_loop().time() > deadline:
                raise AssertionError(f"job never finished: {status}")
            await asyncio.sleep(0.01)

    return asyncio.run(run())


class TestJobSchedulerUnit:
    def test_job_completes_points_in_manifest_order(self):
        async def submit(payload):
            # Identify each chunk by its (input, first size) so the
            # concatenation order is observable.
            return {
                "points": [
                    f"{payload['inputs'][0]}@{n}" for n in payload["sizes"]
                ]
            }

        sizes = [CFG.tile_size * k for k in (2, 4, 8)]
        scheduler, status = drive(
            submit, manifest(sizes=sizes, chunk_sizes=2)
        )
        assert status["status"] == "done"
        assert status["retries"] == 0
        assert status["points"] == [
            f"{name}@{n}"
            for name in ("random", "worst-case")
            for n in sizes
        ]
        assert status["inputs"] == ["random", "worst-case"]
        assert status["sizes"] == sizes
        assert scheduler.stats()["chunks"]["done"] == 4

    def test_worker_failure_requeues_until_success(self):
        failed_once = set()

        async def flaky(payload):
            key = (payload["inputs"][0], tuple(payload["sizes"]))
            if key not in failed_once:
                failed_once.add(key)
                raise ServiceError("worker died mid-chunk")
            return {"points": ["ok"]}

        scheduler, status = drive(flaky, manifest(chunk_sizes=1))
        assert status["status"] == "done"
        # Every chunk failed exactly once before succeeding.
        assert status["retries"] == status["chunks"]["total"] == 4
        assert scheduler.chunk_retries == 4

    def test_retries_exhausted_fails_the_job(self):
        async def always_down(payload):
            raise ServiceError("admission queue full")

        _, status = drive(
            always_down, manifest(chunk_sizes=4, max_retries=1)
        )
        assert status["status"] == "failed"
        assert status["done"] is True
        assert "points" not in status
        errors = status["errors"]
        assert errors and all(
            "gave up after 2 attempts" in e["error"] for e in errors
        )

    def test_validation_failure_is_permanent(self):
        calls = []

        async def reject(payload):
            calls.append(payload)
            raise ValidationError("bad scoring")

        _, status = drive(reject, manifest(chunk_sizes=4, max_retries=5))
        assert status["status"] == "failed"
        assert status["retries"] == 0  # never requeued
        assert len(calls) == 2  # one call per chunk, no retries

    def test_unknown_job_is_none(self):
        scheduler = JobScheduler(lambda payload: None)
        assert scheduler.status("job-404-cafebabe") is None

    def test_bad_concurrency_rejected(self):
        with pytest.raises(ValidationError, match="chunk_concurrency"):
            JobScheduler(lambda payload: None, chunk_concurrency=0)


class TestJobsOnDaemon:
    def test_job_matches_direct_sweep(self, service_factory):
        """A mitigation-crossed job returns exactly the points of one
        direct ``/sweep`` per mitigation, concatenated mitigation-major."""
        sizes = [CFG.tile_size * 2, CFG.tile_size * 4]
        with service_factory(jobs=2) as box:
            ack = box.client.submit_job(
                manifest(
                    sizes=sizes,
                    chunk_sizes=1,
                    mitigations=["none", "cfree-sort"],
                )
            )
            assert ack["ok"] and ack["chunks"] == 8
            status = box.client.wait_for_job(ack["job_id"], timeout=60.0)
            assert status["status"] == "done"
            assert status["chunks"]["done"] == 8
            assert status["mitigations"] == ["none", "cfree-sort"]
            direct = []
            for mitigation in ("none", "cfree-sort"):
                direct += box.client.sweep(
                    config=CFG_OBJ,
                    inputs=["random", "worst-case"],
                    sizes=sizes,
                    score_blocks=2,
                    mitigation=mitigation,
                ).points
            assert [point_from_obj(p) for p in status["points"]] == direct

    def test_invalid_manifest_rejected_with_400(self, service_factory):
        with service_factory() as box:
            with pytest.raises(ValidationError, match="chunk_sizes"):
                box.client.submit_job(manifest(chunk_sizes=0))
            with pytest.raises(ValidationError, match="unknown job"):
                box.client.job_status("job-999-deadbeef")

    def test_killed_worker_mid_manifest_requeues_and_completes(
        self, service_factory
    ):
        """The acceptance scenario: a sweep pool worker dies while the
        daemon holds in-flight chunks. The daemon replaces the broken
        pool, the scheduler requeues the chunks (visible in
        ``retries``), the job still completes, and a direct ``/sweep``
        afterwards is served by the fresh pool."""
        with service_factory(jobs=2) as box:
            service = box.service
            # A warm-up sweep starts the pool's worker processes.
            box.client.sweep(
                config=CFG_OBJ,
                inputs=["random"],
                sizes=[CFG.tile_size],
                score_blocks=2,
            )
            pool = service._pool_points.pool
            victim = next(iter(pool._processes.values()))

            first_call = threading.Event()
            hold = threading.Event()
            original = service._compute_sweep

            def gated(request):
                first_call.set()
                assert hold.wait(60), "gate never released"
                return original(request)

            service._compute_sweep = gated
            sizes = [CFG.tile_size * k for k in (1, 2, 4, 8)]
            ack = box.client.submit_job(
                manifest(
                    sizes=sizes,
                    inputs=("random",),
                    chunk_sizes=1,
                    max_retries=3,
                )
            )
            assert first_call.wait(30), "no chunk reached the daemon"
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool._broken, "the executor never noticed the dead worker"
            hold.set()

            status = box.client.wait_for_job(ack["job_id"], timeout=120.0)
            assert status["status"] == "done", status.get("errors")
            assert status["retries"] >= 1
            assert status["chunks"]["done"] == len(sizes)
            assert box.client.stats()["chunk_retries"] >= 1
            assert service._pool_points.pool is not pool
            direct = box.client.sweep(
                config=CFG_OBJ,
                inputs=["random"],
                sizes=sizes,
                score_blocks=2,
            )
            points = [point_from_obj(p) for p in status["points"]]
            assert points == direct.points
