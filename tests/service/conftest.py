"""Shared fixtures: a real daemon on a loopback ephemeral port.

The server runs in a background thread with its own event loop (signal
handlers are skipped automatically off the main thread); tests talk to
it through the blocking :class:`ServiceClient`, exactly as external
consumers would.
"""

import asyncio
import threading
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, run_service

from repro.sort.config import SortConfig


def small_config(**kwargs):
    defaults = dict(elements_per_thread=3, block_size=32, warp_size=32)
    defaults.update(kwargs)
    return SortConfig(**defaults)


@pytest.fixture
def service_factory():
    """Context manager factory: ``with factory(queue_limit=2) as box: ...``.

    ``box.service`` is the in-loop :class:`ReproService`, ``box.client``
    a connected client, and ``box.holder["drained"]`` (after exit) the
    clean-drain flag returned by the server loop.
    """

    @contextmanager
    def factory(**overrides):
        config = ServiceConfig(
            port=0,
            request_timeout=overrides.pop("request_timeout", 60.0),
            drain_timeout=overrides.pop("drain_timeout", 15.0),
            **overrides,
        )
        holder = {}
        ready = threading.Event()

        def runner():
            holder["drained"] = asyncio.run(
                run_service(
                    config,
                    on_started=lambda s: (holder.update(service=s), ready.set()),
                )
            )

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        assert ready.wait(15), "service failed to start"
        service = holder["service"]
        client = ServiceClient(
            f"http://127.0.0.1:{service.port}", timeout=90.0
        )
        box = SimpleNamespace(
            service=service, client=client, holder=holder, thread=thread
        )
        try:
            yield box
        finally:
            if thread.is_alive():
                service.request_shutdown()
                thread.join(30)
            assert not thread.is_alive(), "service thread failed to exit"

    return factory
