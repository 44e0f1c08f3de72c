"""The serve fleet: sharded multi-process serving behind one gateway.

PR 4 built a single-process asyncio server
(:class:`~repro.server.app.TransitServer`); its throughput ceiling is
the GIL — profile searches are pure-Python compute, so one process
saturates one core no matter how many worker threads it runs.  This
package scales the serving layer *across processes*:

* :mod:`repro.fleet.supervisor` — spawn N ``repro-transit serve``
  worker processes over the same artifact stores (the store's
  ``.npy`` buffers mmap to shared physical pages, so N workers cost
  one copy of the data), discover their ephemeral ports through
  atomically-written port files, and auto-restart crashes with capped
  backoff;
* :mod:`repro.fleet.gateway` — an asyncio front process on the same
  HTTP front as a worker (:mod:`repro.server.http_base`: routes,
  admission, error envelope, request metrics), load-balancing per
  dataset over healthy
  workers, health-checking ``/healthz``, ejecting failed workers and
  readmitting restarted ones after delay-log catch-up, failing
  queries over to a peer when a worker dies mid-request, and
  aggregating fleet-wide ``/metrics``;
* :mod:`repro.fleet.swap` — fleet-wide delay updates through a
  two-phase prepare/commit so no client ever observes a mixed fleet;
* :mod:`repro.fleet.metrics` — the gateway's routing counters, on top
  of the front's request counters.

Entry point: ``repro-transit serve-fleet --store DIR --workers N``.
Clients connect to the gateway exactly as to a single server —
``repro.client.connect("http://gateway:port")`` — with bitwise
identical answers (the gateway forwards worker responses verbatim).
See ``docs/FLEET.md`` for topology, failure modes, and the swap
protocol.
"""

from repro.fleet.gateway import FleetGateway, WorkerState
from repro.fleet.metrics import GatewayMetrics
from repro.fleet.supervisor import WorkerSupervisor
from repro.fleet.swap import FleetSwapCoordinator

__all__ = [
    "FleetGateway",
    "FleetSwapCoordinator",
    "GatewayMetrics",
    "WorkerState",
    "WorkerSupervisor",
]
