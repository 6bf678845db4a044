"""Remote execution: plans served by a running ``repro-mergesort serve``.

:class:`ServiceEngine` routes sort plans through ``POST /simulate`` and
point plans through ``POST /sweep`` on a daemon, via the blocking
:class:`~repro.service.client.ServiceClient`. The daemon is where the
warm state lives (reply cache, optional disk cache,
warm worker pool), so a cold client process still gets warm-path
latencies — that is the point of using this engine.

Constraints inherited from the wire protocol:

* Sort tasks must be *named* inputs (``values=None``): the protocol
  ships generator names + seeds, not raw arrays, precisely so requests
  stay small and coalescible.
* A point's device must be one the server knows
  (:func:`repro.gpu.device.get_device` by name); a locally modified
  :class:`~repro.gpu.device.DeviceSpec` is rejected client-side rather
  than silently served with the server's registered parameters.

Results are decoded back to real :class:`~repro.sort.pairwise.SortResult`
/ :class:`~repro.bench.metrics.BenchPoint` objects — the serialization
layer round-trips bit-identically (enforced by the service tests), so
this engine sits in the same equivalence suite as the local ones.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.engine.base import ExecutionEngine, SortTask
from repro.engine.registry import check_scoring, register_engine
from repro.engine.tasks import ProgressEvent, WorkItem
from repro.errors import ValidationError
from repro.gpu.device import get_device
from repro.sort.serialize import config_to_obj

__all__ = ["ServiceEngine"]


class ServiceEngine(ExecutionEngine):
    """Executes plans on a remote daemon.

    Parameters
    ----------
    url:
        Base URL of a running daemon (ignored when ``client`` is given).
    client:
        An existing :class:`~repro.service.client.ServiceClient` to use.
    timeout:
        Client socket timeout per request (seconds).
    scoring:
        Scoring forwarded with **sort plans**; ``None`` (default) leaves
        the choice to the server (vectorized). Point plans forward each
        item's own ``scoring`` field.
    """

    name = "service"

    def __init__(
        self,
        url: str = "http://127.0.0.1:8787",
        *,
        client=None,
        timeout: float = 630.0,
        scoring: str | None = None,
    ):
        if client is None:
            from repro.service.client import ServiceClient

            client = ServiceClient(url, timeout=timeout)
        if scoring is not None:
            check_scoring(scoring, allow_auto=False)
        self.client = client
        self.scoring = scoring

    # -- plans ---------------------------------------------------------------

    def _execute_sorts(self, tasks: tuple) -> list:
        results = []
        for task in tasks:
            if task.values is not None:
                raise ValidationError(
                    "the service engine sends named inputs, not raw "
                    f"arrays; build the task for {task.describe()} with "
                    "values=None"
                )
            reply = self.client.simulate(
                config=config_to_obj(task.config),
                input=task.input_name,
                num_elements=task.num_elements,
                score_blocks=task.score_blocks,
                seed=task.seed,
                scoring=self.scoring,
                mitigation=(
                    None if task.mitigation == "none" else task.mitigation
                ),
            )
            results.append(reply.result)
        return results

    def _execute_points(
        self, items: tuple, progress: Callable | None
    ) -> list:
        total = len(items)
        results = []
        for i, item in enumerate(items):
            _check_served_device(item)
            start = time.perf_counter()
            reply = self.client.sweep(
                config=config_to_obj(item.config),
                device=item.device.name,
                inputs=[item.input_name],
                sizes=[item.num_elements],
                exact_threshold=item.exact_threshold,
                score_blocks=item.score_blocks,
                seed=item.seed,
                scoring=item.scoring,
                mitigation=(
                    None if item.mitigation == "none" else item.mitigation
                ),
            )
            elapsed = time.perf_counter() - start
            point = reply.points[0]
            results.append(point)
            if progress is not None:
                # Whether the *server* had the point cached is not on the
                # wire; coalescing with an identical in-flight sweep is
                # the closest client-visible equivalent.
                progress(
                    ProgressEvent(
                        i + 1, total, item, point, elapsed, reply.coalesced
                    )
                )
        return results


def _check_served_device(item: WorkItem) -> None:
    """Reject devices the server would resolve to different parameters."""
    registered = get_device(item.device.name)
    if registered != item.device:
        raise ValidationError(
            f"device {item.device.name!r} differs from the registered "
            "spec of the same name; the service resolves devices by name "
            "and would score against the registered parameters"
        )


register_engine("service", lambda **kw: ServiceEngine(**kw))
