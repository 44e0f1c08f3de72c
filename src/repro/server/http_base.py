"""The HTTP front shared by the serving processes.

:class:`BaseAsyncHttpServer` is everything a query worker
(:class:`~repro.server.app.TransitServer`) and the fleet routing
gateway (:class:`~repro.fleet.gateway.FleetGateway`) answer alike
(``docs/SERVER.md``, "HTTP front"):

* the keep-alive connection loop: strict request reading, a 413 for a
  body over :data:`MAX_BODY_BYTES` and a 400 for a malformed
  ``Content-Length`` (both without reading the body, so the
  connection closes), response writing;
* the routes and their methods (:meth:`_route`): unknown paths are
  404 ``unknown_route``, a wrong method is 405 ``method_not_allowed``;
* bounded admission of delay posts and queries (:meth:`_admit`):
  past ``max_inflight``, or once draining, a fast retriable 503 with
  a ``Retry-After`` hint;
* the error envelope (:func:`~repro.server.protocol.error_payload`)
  and the last-resort 500;
* the request metrics (:class:`RequestMetrics`), counted per endpoint
  label.

A front supplies its own parts of the ``/healthz`` and ``/metrics``
documents (``_healthz_payload``, ``_metrics_payload``; the front adds
the protocol version and the readiness fields) and its handlers
(``_list_datasets``, ``_handle_delays``, ``_handle_query``), which
return ``(status, payload)`` or ``(status,
payload, extra headers)``.  A payload is a JSON-safe dict (serialized
here) or pre-encoded ``bytes`` (written verbatim; the gateway forwards
worker answers byte-for-byte this way).

Drain is split into **readiness** and **liveness**:

* :meth:`begin_drain` only flips the readiness flag — ``/healthz``
  (which subclasses render from :attr:`health_status`) starts
  reporting ``"draining"`` while requests are still served normally,
  so a load balancer or the fleet gateway stops routing *before* any
  request gets rejected;
* :meth:`shutdown` calls :meth:`begin_drain`, waits out
  ``drain_grace`` seconds (readiness propagation time), then starts
  the hard drain: stop accepting, answer new requests ``503
  draining``, finish in-flight ones, force-close idle keep-alive
  connections, and run the subclass's :meth:`_post_drain` cleanup.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Awaitable, Callable

from repro.server.protocol import (
    PROTOCOL_VERSION,
    QUERY_SHAPES,
    ProtocolError,
    error_payload,
)

__all__ = [
    "LATENCY_BUCKETS_MS",
    "MAX_BODY_BYTES",
    "BaseAsyncHttpServer",
    "LatencyHistogram",
    "Request",
    "RequestMetrics",
]

#: Request bodies above this are rejected with 413 before parsing.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Upper bucket bounds in milliseconds (an implicit +inf bucket
#: follows the last bound).
LATENCY_BUCKETS_MS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


@dataclass(frozen=True, slots=True)
class Request:
    """One parsed request; ``endpoint`` is its metrics label."""

    method: str
    path: str
    headers: dict[str, str]
    body: bytes
    endpoint: str


class BaseAsyncHttpServer:
    """One listening socket; subclasses supply the handlers."""

    #: How the ``draining`` rejection names this front.
    role = "server"
    #: Domain exceptions a handler may raise, checked in order, each
    #: answered with ``(status, error code)`` and the exception text.
    #: Anything else unhandled is a 500 ``internal``.
    error_status: tuple[tuple[type[Exception], int, str], ...] = ()

    def __init__(
        self,
        *,
        host: str,
        port: int,
        max_inflight: int,
        retry_after: float,
        drain_grace: float,
        metrics: RequestMetrics,
    ) -> None:
        if drain_grace < 0:
            raise ValueError(
                f"drain_grace must be non-negative, got {drain_grace}"
            )
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if retry_after < 0:
            raise ValueError(
                f"retry_after must be non-negative, got {retry_after}"
            )
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self.max_inflight = max_inflight
        #: Backoff hint (seconds) sent as ``Retry-After`` on every
        #: retriable rejection; cooperative clients (repro.client)
        #: honor it.
        self.retry_after = retry_after
        self.drain_grace = drain_grace
        self.metrics = metrics
        self._server: asyncio.base_events.Server | None = None
        self._inflight = 0
        #: Readiness: cleared by :meth:`begin_drain`; ``/healthz``
        #: reports ``"draining"`` while requests still succeed.
        self._ready = True
        #: Liveness drain: set by :meth:`shutdown` after the grace
        #: window; new requests are fast-503'd from here on.
        self._draining = False
        #: Connections currently parked between requests (waiting in
        #: readline); shutdown force-closes exactly these so idle
        #: keep-alive clients cannot stall the drain.
        self._idle_connections: set[asyncio.StreamWriter] = set()

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` holds the bound
        port afterwards (pass ``port=0`` for an ephemeral one)."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    @property
    def health_status(self) -> str:
        """What ``/healthz`` should report: ``"draining"`` from the
        moment :meth:`begin_drain` ran, ``"ok"`` before."""
        return "draining" if (self._draining or not self._ready) else "ok"

    def begin_drain(self) -> None:
        """Flip readiness only: ``/healthz`` answers ``"draining"``
        while queries are still admitted and served.  Idempotent."""
        self._ready = False

    async def shutdown(self, *, grace: float | None = None) -> None:
        """Graceful drain: announce unreadiness, wait ``grace``
        seconds (default: the constructor's ``drain_grace``) so load
        balancers stop routing, then stop accepting, finish in-flight
        requests, and force-close idle keep-alive connections.

        Idle connections are closed once the last in-flight request
        finished — their handlers are parked in a read that nothing
        else would ever wake, and (from Python 3.12.1) ``wait_closed``
        waits for every handler to return.  Handlers that are
        mid-request finish their response first (draining breaks their
        keep-alive loop)."""
        self.begin_drain()
        grace = self.drain_grace if grace is None else grace
        if grace > 0:
            await asyncio.sleep(grace)
        self._draining = True
        if self._server is not None:
            self._server.close()
        while self._inflight > 0:
            await asyncio.sleep(0.005)
        for writer in list(self._idle_connections):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        await self._post_drain()

    async def _post_drain(self) -> None:
        """Subclass cleanup after the last request drained (worker
        pools, health loops, downstream connections)."""

    # -- routing --------------------------------------------------------

    async def _dispatch(
        self, request: Request
    ) -> tuple[int, dict | bytes, dict]:
        """Route one request and count it; returns ``(status, payload,
        extra response headers)``."""
        self.metrics.observe_request(request.endpoint)
        t0 = time.perf_counter()
        try:
            status, payload, *rest = await self._route(request)
            extra = rest[0] if rest else {}
        except ProtocolError as exc:
            status, payload, extra = exc.status, exc.payload(), {}
        except Exception as exc:  # noqa: BLE001 — mapped or last-resort 500
            status, code = 500, "internal"
            message = f"{type(exc).__name__}: {exc}"
            for kind, kind_status, kind_code in self.error_status:
                if isinstance(exc, kind):
                    status, code, message = kind_status, kind_code, str(exc)
                    break
            payload, extra = error_payload(code, message), {}
        self.metrics.observe_response(
            request.endpoint, status, time.perf_counter() - t0
        )
        return status, payload, extra

    async def _route(self, request: Request) -> tuple:
        method = request.method
        parts = _path_parts(request.path)
        if parts == ["healthz"]:
            _require_method(method, "GET")
            status = self.health_status
            return 200, {
                "v": PROTOCOL_VERSION,
                "status": status,
                "ready": status == "ok",
                **self._healthz_payload(),
            }
        if parts == ["metrics"]:
            _require_method(method, "GET")
            metrics = await self._metrics_payload()
            return 200, {"v": PROTOCOL_VERSION, **metrics}
        if parts == ["v1", "datasets"]:
            _require_method(method, "GET")
            return await self._list_datasets(request)
        if (
            len(parts) == 4
            and parts[:2] == ["v1", "datasets"]
            and parts[3] == "delays"
        ):
            _require_method(method, "POST")
            return await self._admit(
                request, self._handle_delays, parts[2]
            )
        if len(parts) == 3 and parts[0] == "v1" and parts[2] in QUERY_SHAPES:
            _require_method(method, "POST")
            return await self._admit(
                request, self._handle_query, parts[1], parts[2]
            )
        raise ProtocolError(
            "unknown_route",
            f"no route for {method} {request.path}",
            status=404,
        )

    # -- the handlers a front supplies ----------------------------------

    def _healthz_payload(self) -> dict:
        raise NotImplementedError

    async def _metrics_payload(self) -> dict:
        raise NotImplementedError

    async def _list_datasets(self, request: Request) -> tuple:
        raise NotImplementedError

    async def _handle_delays(self, request: Request, dataset: str) -> tuple:
        raise NotImplementedError

    async def _handle_query(
        self, request: Request, dataset: str, shape: str
    ) -> tuple:
        raise NotImplementedError

    # -- admission ------------------------------------------------------

    async def _admit(
        self, request: Request, handler: Callable[..., Awaitable[tuple]], *args
    ) -> tuple:
        """Run ``handler(request, *args)`` as one admitted in-flight
        request, or answer a fast 503 instead of queueing.  Unreadiness
        (``begin_drain``) does *not* reject — the grace window exists
        precisely so requests still in flight from a router that has
        not yet noticed keep succeeding.  Nothing awaits between the
        admission check and the handler's start."""
        if self._draining:
            self.metrics.observe_reject(request.endpoint)
            return self._retriable(
                503, "draining", f"{self.role} is shutting down"
            )
        if self._inflight >= self.max_inflight:
            self.metrics.observe_reject(request.endpoint)
            return self._retriable(
                503,
                "overloaded",
                f"{self._inflight} requests in flight "
                f"(max_inflight={self.max_inflight}); retry",
            )
        self._inflight += 1
        self.metrics.inflight = self._inflight
        try:
            return await handler(request, *args)
        finally:
            self._inflight -= 1
            self.metrics.inflight = self._inflight

    def _retriable(self, status: int, code: str, message: str) -> tuple:
        """A retriable error answer with the ``Retry-After`` hint."""
        return (
            status,
            error_payload(code, message, retriable=True),
            self._retry_after_header(),
        )

    def _retry_after_header(self) -> dict:
        # RFC 9110 wants integral delta-seconds; emit sub-second
        # values as-is anyway (our own client parses floats, and a
        # strict parser falling back to "retry later" is still right).
        value = self.retry_after
        rendered = str(int(value)) if float(value).is_integer() else f"{value:g}"
        return {"Retry-After": rendered}

    # -- connection handling -------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                # Parked between requests: eligible for force-close by
                # a draining shutdown.
                self._idle_connections.add(writer)
                try:
                    request = await self._read_request(reader)
                except ProtocolError as exc:
                    request = exc
                finally:
                    self._idle_connections.discard(writer)
                if request is None:
                    break
                if isinstance(request, ProtocolError):
                    # The body was never read off the socket, so the
                    # connection cannot be reused.
                    status, payload = request.status, request.payload()
                    extra, keep_alive = {}, False
                else:
                    status, payload, extra = await self._dispatch(request)
                    connection = request.headers.get("connection", "")
                    keep_alive = (
                        connection.lower() != "close" and not self._draining
                    )
                data = (
                    payload
                    if isinstance(payload, bytes)
                    else json.dumps(payload).encode("utf-8")
                )
                extra_lines = "".join(
                    f"{name}: {value}\r\n" for name, value in extra.items()
                )
                head = (
                    f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                    f"{extra_lines}"
                    f"\r\n"
                ).encode("latin-1")
                writer.write(head + data)
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            ValueError,  # request line or header over the read limit
        ):
            pass  # client went away or spoke garbage; just close
        finally:
            self._idle_connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Request | None:
        """Parse one HTTP/1.1 request; ``None`` on a clean EOF.  A body
        that is too large or has a malformed length is left unread and
        raised as a :class:`ProtocolError` (413 or 400)."""
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise asyncio.IncompleteReadError(line, None)
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise ProtocolError(
                "invalid_request", f"malformed Content-Length {declared!r}"
            )
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                "payload_too_large",
                f"request body exceeds {MAX_BODY_BYTES} bytes",
                status=413,
            )
        body = await reader.readexactly(length) if length else b""
        endpoint = _endpoint_label(method, path)
        return Request(method, path, headers, body, endpoint)


class LatencyHistogram:
    """Fixed-bucket latency histogram with bucket-bound percentiles."""

    __slots__ = ("_counts", "_sum_ms", "_count")

    def __init__(self) -> None:
        self._counts = [0] * (len(LATENCY_BUCKETS_MS) + 1)  # guarded-by: loop
        self._sum_ms = 0.0  # guarded-by: loop
        self._count = 0  # guarded-by: loop

    def observe(self, seconds: float) -> None:
        ms = seconds * 1000.0
        self._sum_ms += ms
        self._count += 1
        for i, bound in enumerate(LATENCY_BUCKETS_MS):
            if ms <= bound:
                self._counts[i] += 1
                return
        self._counts[-1] += 1

    def percentile(self, q: float) -> float | None:
        """Upper bound of the bucket holding the q-quantile.

        ``None`` with no observations — and ``None`` when the quantile
        falls in the +inf overflow bucket: a 10 s request must never
        be reported as "p99 ≤ 2500 ms".  The snapshot pairs the null
        bound with ``overflow_count`` so overload tails stay visible
        instead of silently clamped to the last finite bound.
        """
        if self._count == 0:
            return None
        rank = q * self._count
        seen = 0
        for i, count in enumerate(self._counts):
            seen += count
            if seen >= rank and count:
                if i < len(LATENCY_BUCKETS_MS):
                    return LATENCY_BUCKETS_MS[i]
                return None  # overflow bucket: no finite upper bound
        return None

    @property
    def overflow_count(self) -> int:
        """Observations beyond the last finite bucket bound."""
        return self._counts[-1]

    def snapshot(self) -> dict:
        return {
            "count": self._count,
            "sum_ms": round(self._sum_ms, 3),
            "mean_ms": round(self._sum_ms / self._count, 3)
            if self._count
            else None,
            "p50_ms_le": self.percentile(0.50),
            "p99_ms_le": self.percentile(0.99),
            "overflow_count": self.overflow_count,
            "buckets_ms": {
                str(bound): self._counts[i]
                for i, bound in enumerate(LATENCY_BUCKETS_MS)
            }
            | {"inf": self._counts[-1]},
        }


class RequestMetrics:
    """The request accounting every front keeps (event-loop-only).

    Counted by endpoint label: requests, responses by status, latency
    histograms (bucket-bound p50/p99; a percentile in the +inf
    overflow bucket renders as ``null`` next to a non-zero
    ``overflow_count``), 503 rejections, and the in-flight gauge.
    Subclasses add their own counters and extend :meth:`snapshot`.
    """

    def __init__(self) -> None:
        self._started = time.monotonic()
        self.requests_total: dict[str, int] = {}  # guarded-by: loop
        self.responses_total: dict[str, dict[str, int]] = {}  # guarded-by: loop
        self.latency: dict[str, LatencyHistogram] = {}  # guarded-by: loop
        self.rejected_total = 0  # guarded-by: loop
        self.rejected_by_endpoint: dict[str, int] = {}  # guarded-by: loop
        self.inflight = 0  # guarded-by: loop

    def observe_request(self, endpoint: str) -> None:
        self.requests_total[endpoint] = (
            self.requests_total.get(endpoint, 0) + 1
        )

    def observe_response(
        self, endpoint: str, status: int, seconds: float
    ) -> None:
        per_status = self.responses_total.setdefault(endpoint, {})
        key = str(status)
        per_status[key] = per_status.get(key, 0) + 1
        hist = self.latency.get(endpoint)
        if hist is None:
            hist = self.latency[endpoint] = LatencyHistogram()
        hist.observe(seconds)

    def observe_reject(self, endpoint: str) -> None:
        """A 503 on ``endpoint``.  The scalar ``rejected_total`` stays
        for wire compat; the per-endpoint breakdown makes 503 pressure
        attributable per route."""
        self.rejected_total += 1
        self.rejected_by_endpoint[endpoint] = (
            self.rejected_by_endpoint.get(endpoint, 0) + 1
        )

    def snapshot(self) -> dict:
        return {
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "requests_total": dict(self.requests_total),
            "responses_total": {
                endpoint: dict(statuses)
                for endpoint, statuses in self.responses_total.items()
            },
            "rejected_total": self.rejected_total,
            "rejected_by_endpoint": dict(self.rejected_by_endpoint),
            "inflight": self.inflight,
            "latency": {
                endpoint: hist.snapshot()
                for endpoint, hist in self.latency.items()
            },
        }


def _path_parts(path: str) -> list[str]:
    return [p for p in path.split("?")[0].split("/") if p]


def _endpoint_label(method: str, path: str) -> str:
    """Low-cardinality endpoint label for metrics (dataset names are
    folded out of the label; per-dataset detail lives in each front's
    own sections of ``/metrics``)."""
    parts = _path_parts(path)
    if parts == ["healthz"] or parts == ["metrics"]:
        return f"{method} /{parts[0]}"
    if parts[:2] == ["v1", "datasets"]:
        if len(parts) == 2:
            return "GET /v1/datasets"
        return "POST /v1/datasets/{name}/delays"
    if len(parts) == 3 and parts[0] == "v1" and parts[2] in QUERY_SHAPES:
        return f"POST /v1/{{name}}/{parts[2]}"
    return f"{method} <unmatched>"


def _require_method(method: str, expected: str) -> None:
    if method != expected:
        raise ProtocolError(
            "method_not_allowed",
            f"use {expected} for this endpoint, not {method}",
            status=405,
        )
