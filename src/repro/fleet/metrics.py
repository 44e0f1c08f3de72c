"""Gateway-side observability.

One :class:`GatewayMetrics` belongs to one
:class:`~repro.fleet.gateway.FleetGateway`.  Mutation happens on the
gateway's event-loop thread only (forward results are observed after
``run_in_executor`` returns), so — like
:class:`~repro.server.metrics.ServerMetrics` — no locking is needed.

The request counters are the HTTP front's
(:class:`~repro.server.http_base.RequestMetrics`, shared with the
worker, endpoint labels included), so a dashboard can overlay
"requests the fleet received" (gateway) with "requests each worker
served" (worker ``/metrics``, aggregated in the gateway snapshot's
``fleet`` section) and attribute the difference to failovers and
rejections.  What is
*new* here is the routing story: per-worker forward counts, failovers
(a query re-sent to a peer after its first worker died mid-request),
ejections/readmissions, delay-log catch-up replays, and the duration
of the routing pause each coordinated swap holds.
"""

from __future__ import annotations

from repro.server.http_base import RequestMetrics

__all__ = ["GatewayMetrics"]


class GatewayMetrics(RequestMetrics):
    """Routing/forwarding accounting of one gateway (loop-only)."""

    def __init__(self) -> None:
        super().__init__()
        #: Forwards that returned (any status), per worker name.
        self.forwards_total: dict[str, int] = {}  # guarded-by: loop
        #: Queries re-sent to a peer after the first worker failed
        #: (transport error or retriable 503).
        self.failovers_total = 0  # guarded-by: loop
        #: 503s answered because no healthy worker was available.
        self.no_worker_total = 0  # guarded-by: loop
        self.ejections_total: dict[str, int] = {}  # guarded-by: loop
        self.readmissions_total: dict[str, int] = {}  # guarded-by: loop
        #: Catch-up replay POSTs sent to restarted workers before
        #: readmission (the catch-up protocol, ``docs/FLEET.md``).
        self.catch_up_batches_total = 0  # guarded-by: loop
        #: Logged delay batches those posts *represented* — coalescing
        #: merges consecutive slack-free batches, so this counts the
        #: batches caught up, not the posts sent.
        self.catch_up_coalesced_total = 0  # guarded-by: loop
        #: Coordinated swaps that requested the incremental delta
        #: replan (``replan: incremental``), per dataset.
        self.incremental_swaps_total: dict[str, int] = {}  # guarded-by: loop
        #: Gateway-coordinated swaps committed, per dataset.
        self.swaps_total: dict[str, int] = {}  # guarded-by: loop
        self.last_swap_seconds: dict[str, float] = {}  # guarded-by: loop
        #: How long the last swap held the dataset's routing gate
        #: closed (drain + fleet-wide commit), in seconds.
        self.last_swap_pause_seconds: dict[str, float] = {}  # guarded-by: loop
        self.health_sweep_errors_total = 0  # guarded-by: loop

    # -- observation hooks ---------------------------------------------

    def observe_forward(self, worker: str) -> None:
        self.forwards_total[worker] = self.forwards_total.get(worker, 0) + 1

    def observe_ejection(self, worker: str) -> None:
        self.ejections_total[worker] = (
            self.ejections_total.get(worker, 0) + 1
        )

    def observe_readmission(self, worker: str) -> None:
        self.readmissions_total[worker] = (
            self.readmissions_total.get(worker, 0) + 1
        )

    def observe_swap(
        self,
        dataset: str,
        seconds: float,
        pause_seconds: float,
        *,
        incremental: bool = False,
    ) -> None:
        self.swaps_total[dataset] = self.swaps_total.get(dataset, 0) + 1
        self.last_swap_seconds[dataset] = seconds
        self.last_swap_pause_seconds[dataset] = pause_seconds
        if incremental:
            self.incremental_swaps_total[dataset] = (
                self.incremental_swaps_total.get(dataset, 0) + 1
            )

    # -- rendering ------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe gateway section of the fleet ``/metrics``."""
        return {
            **super().snapshot(),
            "forwards_total": dict(self.forwards_total),
            "failovers_total": self.failovers_total,
            "no_worker_total": self.no_worker_total,
            "ejections_total": dict(self.ejections_total),
            "readmissions_total": dict(self.readmissions_total),
            "catch_up_batches_total": self.catch_up_batches_total,
            "catch_up_coalesced_total": self.catch_up_coalesced_total,
            "swaps_total": dict(self.swaps_total),
            "incremental_swaps_total": dict(self.incremental_swaps_total),
            "last_swap_seconds": {
                name: round(seconds, 6)
                for name, seconds in self.last_swap_seconds.items()
            },
            "last_swap_pause_seconds": {
                name: round(seconds, 6)
                for name, seconds in self.last_swap_pause_seconds.items()
            },
            "health_sweep_errors_total": self.health_sweep_errors_total,
        }
