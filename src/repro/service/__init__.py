"""A long-lived generation-and-scoring service for the reproduction.

``repro-mergesort serve`` starts an asyncio daemon (hand-rolled
HTTP/1.1, stdlib only) that amortizes the library's cold-start costs —
calibration sorts, repeated requests (a reply cache of encoded
bodies), the on-disk bench cache, the sweep worker pool — across every
request of its lifetime, with
single-flight request coalescing, bounded-admission backpressure
(HTTP 429), per-request deadlines, and graceful SIGTERM drain.

See :mod:`repro.service.server` for the daemon,
:mod:`repro.service.client` for the matching blocking client, and
``docs/SERVICE.md`` for the endpoint reference and ops runbook.
"""

from repro.service.batching import AdmissionGate, SingleFlight
from repro.service.client import ServiceClient, SimulateReply, SweepReply
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ConstructRequest,
    SimulateRequest,
    SweepRequest,
)
from repro.service.server import (
    ReproService,
    ServiceConfig,
    run_service,
    serve_forever,
)
from repro.service.stats import ServiceStats

__all__ = [
    "AdmissionGate",
    "ConstructRequest",
    "PROTOCOL_VERSION",
    "ReproService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceStats",
    "SimulateReply",
    "SimulateRequest",
    "SingleFlight",
    "SweepReply",
    "SweepRequest",
    "run_service",
    "serve_forever",
]
