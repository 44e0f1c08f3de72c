"""The asyncio HTTP front end (stdlib-only, HTTP/1.1 keep-alive).

Endpoints (all bodies JSON, see :mod:`repro.server.protocol` and
``docs/SERVER.md``)::

    GET  /healthz                     readiness + liveness + datasets
    GET  /metrics                     ServerMetrics snapshot
    GET  /v1/datasets                 per-dataset summaries
    POST /v1/datasets/{name}/delays   hot delay swap (apply, or the
                                      two-phase prepare/commit/abort
                                      the fleet gateway drives)
    POST /v1/{name}/profile           one-to-all profile search
    POST /v1/{name}/journey           station-to-station query
    POST /v1/{name}/batch             batched workload
    POST /v1/{name}/multicriteria     (transfers, arrival) Pareto front
    POST /v1/{name}/via               source → via → target journey
    POST /v1/{name}/min-transfers     fewest-transfers journey

Design:

* **No blocking on the loop** — every service call runs on the
  :class:`~repro.server.executor.QueryExecutor` worker pool; the loop
  only parses, routes, and serializes.
* **One HTTP front** — the keep-alive loop, routes and methods,
  bounded admission (at most ``max_inflight`` queries and delay swaps
  in flight, the next one answered ``503 overloaded`` immediately),
  the error envelope, graceful drain and the request metrics live in
  :class:`~repro.server.http_base.BaseAsyncHttpServer`, shared with
  the fleet gateway.  This class adds the query and delay handlers,
  the domain-exception → status mapping and the ``X-Retry-Attempt``
  count.
* **Hot swaps drain, never break** — a query pins its dataset's
  service reference at admission; the swap replaces the reference for
  *later* requests only (:mod:`repro.server.registry`).
* **Graceful shutdown distinguishes readiness from liveness** —
  :meth:`~BaseAsyncHttpServer.begin_drain` flips ``/healthz`` to
  ``"draining"`` while requests still succeed, so the fleet gateway
  (or any LB) stops routing *before* the hard drain starts
  fast-503ing; :meth:`~BaseAsyncHttpServer.shutdown` then waits out
  ``drain_grace``, finishes in-flight requests, flushes the executor's
  micro-batch windows, and stops the pool.  ``repro serve`` wires
  SIGINT/SIGTERM to exactly this path and exits 0.
"""

from __future__ import annotations

from repro.server.executor import QueryExecutor
from repro.server.http_base import MAX_BODY_BYTES, BaseAsyncHttpServer, Request
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (
    PROTOCOL_VERSION,
    DelayCommand,
    encode_batch,
    encode_journey,
    encode_min_transfers,
    encode_multicriteria,
    encode_profile,
    encode_via,
    parse_batch_request,
    parse_body,
    parse_delay_request,
    parse_journey_request,
    parse_min_transfers_request,
    parse_multicriteria_request,
    parse_profile_request,
    parse_via_request,
)
from repro.server.registry import DatasetRegistry, RegistryError, SwapStateError

__all__ = ["MAX_BODY_BYTES", "TransitServer"]


class TransitServer(BaseAsyncHttpServer):
    """One listening socket over one :class:`DatasetRegistry`."""

    error_status = (
        (RegistryError, 404, "unknown_dataset"),
        (SwapStateError, 409, "swap_conflict"),
        # Domain validation the protocol layer cannot see (e.g.
        # Delay.from_stop past the train's run).
        (ValueError, 400, "invalid_request"),
    )

    def __init__(
        self,
        registry: DatasetRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        max_inflight: int = 64,
        batch_window: float = 0.002,
        batch_max: int = 8,
        retry_after: float = 1.0,
        drain_grace: float = 0.0,
        executor: QueryExecutor | None = None,
        metrics: ServerMetrics | None = None,
    ) -> None:
        super().__init__(
            host=host,
            port=port,
            max_inflight=max_inflight,
            retry_after=retry_after,
            drain_grace=drain_grace,
            metrics=metrics if metrics is not None else ServerMetrics(),
        )
        self.registry = registry
        self.executor = (
            executor
            if executor is not None
            else QueryExecutor(
                workers=workers,
                batch_window=batch_window,
                batch_max=batch_max,
                metrics=self.metrics,
            )
        )
        if self.executor.metrics is None:
            self.executor.metrics = self.metrics

    async def _post_drain(self) -> None:
        await self.executor.shutdown()

    async def _dispatch(self, request: Request) -> tuple:
        """The front's dispatch, plus the count of requests that
        declare themselves retries (the ``X-Retry-Attempt`` header
        repro.client sends with its 503 backoff retries) in
        ``retries_observed_total``."""
        try:
            retry = int(request.headers.get("x-retry-attempt", "0")) > 0
        except ValueError:
            retry = False
        if retry:
            self.metrics.observe_client_retry()
        return await super()._dispatch(request)

    # -- handlers -------------------------------------------------------

    def _healthz_payload(self) -> dict:
        return {
            "datasets": self.registry.names(),
            "generations": {
                entry.name: entry.generation
                for entry in self.registry.entries()
            },
        }

    async def _metrics_payload(self) -> dict:
        return self.metrics.snapshot(self.registry)

    async def _list_datasets(self, request: Request) -> tuple:
        return 200, {
            "v": PROTOCOL_VERSION,
            "datasets": [
                entry.describe() for entry in self.registry.entries()
            ],
        }

    async def _handle_query(
        self, request: Request, dataset: str, shape: str
    ) -> tuple:
        # Pin the service *before* any await: a hot swap mid-request
        # must not change what this request runs against.
        service = self.registry.get(dataset).service
        num_stations = service.timetable.num_stations
        parsed = parse_body(request.body)
        if shape == "profile":
            query, targets = parse_profile_request(parsed, num_stations)
            result = await self.executor.profile(service, query)
            return 200, encode_profile(
                result, num_stations=num_stations, targets=targets
            )
        if shape == "journey":
            query = parse_journey_request(parsed, num_stations)
            result = await self.executor.journey(service, query)
            return 200, encode_journey(result)
        if shape == "multicriteria":
            query = parse_multicriteria_request(parsed, num_stations)
            result = await self.executor.multicriteria(service, query)
            return 200, encode_multicriteria(result)
        if shape == "via":
            query = parse_via_request(parsed, num_stations)
            result = await self.executor.via(service, query)
            return 200, encode_via(result)
        if shape == "min-transfers":
            query = parse_min_transfers_request(parsed, num_stations)
            result = await self.executor.min_transfers(service, query)
            return 200, encode_min_transfers(result)
        query = parse_batch_request(parsed, num_stations)
        response = await self.executor.batch(service, query)
        return 200, encode_batch(response, num_stations=num_stations)

    async def _handle_delays(self, request: Request, dataset: str) -> tuple:
        # Replans are CPU-heavy worker-pool jobs like any query: the
        # front admits them under the same bound (a swap storm must
        # not starve queries), and a draining server starts no new
        # ones.
        entry = self.registry.get(dataset)
        command = parse_delay_request(
            parse_body(request.body), entry.service.timetable.num_trains
        )
        if command.mode == "apply":
            return 200, await self._swap_apply(dataset, command)
        if command.mode == "prepare":
            return 200, await self._swap_prepare(dataset, command)
        if command.mode == "commit":
            return 200, await self._swap_commit(dataset, command)
        return 200, await self._swap_abort(dataset, command)

    async def _swap_apply(self, name: str, command: DelayCommand) -> dict:
        entry = await self.registry.apply_delays(
            name,
            command.delays,
            slack_per_leg=command.slack_per_leg,
            replan=command.replan,
            advance=command.advance,
            run=self.executor.run,
        )
        self.metrics.observe_swap(name, entry.last_swap_seconds)
        return {
            "v": PROTOCOL_VERSION,
            "dataset": name,
            "mode": "apply",
            "generation": entry.generation,
            "num_delays": len(command.delays),
            "slack_per_leg": command.slack_per_leg,
            "swap_seconds": round(entry.last_swap_seconds, 6),
        }

    async def _swap_prepare(self, name: str, command: DelayCommand) -> dict:
        token, seconds = await self.registry.prepare_delays(
            name,
            command.delays,
            slack_per_leg=command.slack_per_leg,
            replan=command.replan,
            run=self.executor.run,
        )
        entry = self.registry.get(name)
        return {
            "v": PROTOCOL_VERSION,
            "dataset": name,
            "mode": "prepare",
            "token": token,
            "base_generation": entry.generation,
            "num_delays": len(command.delays),
            "slack_per_leg": command.slack_per_leg,
            "replan_seconds": round(seconds, 6),
        }

    async def _swap_commit(self, name: str, command: DelayCommand) -> dict:
        entry = await self.registry.commit_prepared(name, command.token)
        self.metrics.observe_swap(name, entry.last_swap_seconds)
        return {
            "v": PROTOCOL_VERSION,
            "dataset": name,
            "mode": "commit",
            "token": command.token,
            "generation": entry.generation,
            "swap_seconds": round(entry.last_swap_seconds, 6),
        }

    async def _swap_abort(self, name: str, command: DelayCommand) -> dict:
        discarded = await self.registry.abort_prepared(name, command.token)
        return {
            "v": PROTOCOL_VERSION,
            "dataset": name,
            "mode": "abort",
            "token": command.token,
            "discarded": discarded,
        }
