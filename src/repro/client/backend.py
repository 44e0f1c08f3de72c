"""`TransitBackend` — one query API over any transport — and its
in-process implementation, :class:`LocalBackend`.

A backend answers the entrypoints of the serving surface — the six
query shapes (``profile``, ``journey``, ``batch``, ``multicriteria``,
``via``, ``min_transfers``) plus ``journey_many``, the streaming
``iter_batch``, ``apply_delays`` and ``info`` — over the service
layer's typed requests (:class:`~repro.service.model.ProfileRequest`,
:class:`~repro.service.model.JourneyRequest`,
:class:`~repro.service.model.BatchRequest`,
:class:`~repro.service.model.MulticriteriaRequest`,
:class:`~repro.service.model.ViaRequest`,
:class:`~repro.service.model.MinTransfersRequest`).  Programs written against
the protocol run unchanged on an in-process dataset
(:class:`LocalBackend`) or a remote server
(:class:`~repro.client.http.HttpBackend`) — with **bitwise-identical
answers** (``tests/client/test_transport_parity.py``).

The parity is structural, not coincidental: :class:`LocalBackend`
pushes every request through the *server's own wire layer* in-process
— :mod:`repro.client.wire` renders the typed request as the wire
object, :mod:`repro.server.protocol`'s parsers validate it (same typed
errors, same codes), the facade answers, ``encode_*`` renders the
answer, and :mod:`repro.client.results` decodes it — exactly the
pipeline a remote request traverses, minus the socket.  What the
transports can differ in is latency and transport-level failures,
never content.
"""

from __future__ import annotations

import time
from pathlib import Path
from threading import Lock
from typing import Iterator, Protocol, Sequence, runtime_checkable

from repro.client import wire
from repro.client.errors import error_from_payload
from repro.client.results import (
    BatchAnswer,
    DatasetInfo,
    DelayUpdate,
    JourneyAnswer,
    ProfileAnswer,
    decode_batch,
    decode_info,
    decode_journey,
    decode_min_transfers,
    decode_multicriteria,
    decode_profile,
    decode_via,
)
from repro.server.protocol import (
    ProtocolError,
    encode_batch,
    encode_journey,
    encode_min_transfers,
    encode_multicriteria,
    encode_profile,
    encode_via,
    error_payload,
    parse_batch_request,
    parse_delay_request,
    parse_journey_request,
    parse_min_transfers_request,
    parse_multicriteria_request,
    parse_profile_request,
    parse_via_request,
)
from repro.service.facade import TransitService
from repro.service.model import (
    BatchRequest,
    JourneyRequest,
    MinTransfersRequest,
    MinTransfersResult,
    MulticriteriaRequest,
    MulticriteriaResult,
    ProfileRequest,
    ViaRequest,
    ViaResult,
    as_request,
)
from repro.timetable.delays import Delay


@runtime_checkable
class TransitBackend(Protocol):
    """The transport-agnostic query surface (see module docstring).

    Implementations: :class:`LocalBackend` (in-process),
    :class:`~repro.client.http.HttpBackend` (remote).  Pick one with
    :func:`repro.client.connect`.
    """

    def profile(
        self,
        request: ProfileRequest | int,
        *,
        targets: Sequence[int] | None = None,
    ) -> ProfileAnswer: ...

    def journey(
        self,
        request: JourneyRequest | int,
        target: int | None = None,
        *,
        departure: int | None = None,
    ) -> JourneyAnswer: ...

    def journey_many(
        self, requests: Sequence[JourneyRequest]
    ) -> list[JourneyAnswer]: ...

    def batch(
        self, request: BatchRequest | Sequence[tuple[int, int]]
    ) -> BatchAnswer: ...

    def multicriteria(
        self,
        request: MulticriteriaRequest | int,
        target: int | None = None,
        *,
        departure: int | None = None,
        max_transfers: int | None = None,
    ) -> MulticriteriaResult: ...

    def via(
        self,
        request: ViaRequest | int,
        via: int | None = None,
        target: int | None = None,
        *,
        departure: int | None = None,
    ) -> ViaResult: ...

    def min_transfers(
        self,
        request: MinTransfersRequest | int,
        target: int | None = None,
        *,
        departure: int | None = None,
        max_transfers: int | None = None,
    ) -> MinTransfersResult: ...

    def iter_batch(
        self, request: BatchRequest | Sequence[tuple[int, int]]
    ) -> Iterator[JourneyAnswer | ProfileAnswer]: ...

    def apply_delays(
        self,
        delays: Sequence[Delay],
        *,
        slack_per_leg: int = 0,
        replan: str = "full",
    ) -> DelayUpdate: ...

    def info(self) -> DatasetInfo: ...

    def close(self) -> None: ...


class LocalBackend:
    """A backend over one in-process :class:`TransitService`.

    Construct it over a live service, or over an artifact-store path —
    the store is then opened **lazily** on first use, so building a
    backend is free and a bad path surfaces where the first query
    would (as :class:`repro.store.StoreError`, exactly like
    ``TransitService.load``).

    Thread-safe the same way the server is: queries pin the current
    service reference at entry, :meth:`apply_delays` replans and swaps
    that reference under a lock (concurrent swaps serialize, in-flight
    queries drain against the generation they pinned).
    """

    def __init__(
        self,
        source: TransitService | str | Path,
        *,
        name: str | None = None,
        config=None,
    ) -> None:
        self._swap_lock = Lock()
        self._generation = 0
        if isinstance(source, TransitService):
            self._service: TransitService | None = source
            self._store: Path | None = None
            self._config = None
            self.source = "memory"
            self.name = name or source.timetable.name or "local"
        else:
            self._service = None
            self._store = Path(source)
            self._config = config
            self.source = str(source)
            self.name = name or self._store.name or "local"

    # -- lifecycle ------------------------------------------------------

    @property
    def service(self) -> TransitService:
        """The current service, warm-starting from the store on first
        access when the backend was built over a path."""
        service = self._service
        if service is None:
            with self._swap_lock:
                if self._service is None:
                    self._service = TransitService.load(
                        self._store, config=self._config
                    )
                service = self._service
        return service

    def close(self) -> None:
        """Release the service reference.  A path-built backend
        returns to its *stored* state: a later query reloads the
        pristine store, so the delay-generation counter resets with it
        (applied delays do not survive a close).  A service-built
        backend keeps its service untouched."""
        if self._store is not None:
            with self._swap_lock:
                self._service = None
                self._generation = 0

    def __enter__(self) -> "LocalBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- query shapes ----------------------------------------------------

    def profile(
        self,
        request: ProfileRequest | int,
        *,
        targets: Sequence[int] | None = None,
    ) -> ProfileAnswer:
        service = self.service
        body = wire.profile_body(as_request(ProfileRequest, request), targets)
        req, wire_targets = self._parse(
            parse_profile_request, body, service.timetable.num_stations
        )
        result = service.profile(req)
        return decode_profile(
            encode_profile(
                result,
                num_stations=service.timetable.num_stations,
                targets=wire_targets,
            )
        )

    def journey(
        self,
        request: JourneyRequest | int,
        target: int | None = None,
        *,
        departure: int | None = None,
    ) -> JourneyAnswer:
        service = self.service
        body = wire.journey_body(
            as_request(
                JourneyRequest, request, target=target, departure=departure
            )
        )
        req = self._parse(
            parse_journey_request, body, service.timetable.num_stations
        )
        return decode_journey(encode_journey(service.journey(req)))

    def journey_many(
        self, requests: Sequence[JourneyRequest]
    ) -> list[JourneyAnswer]:
        """Many journeys in one engine pass.  Routed through
        :meth:`batch` — the same mapping :class:`HttpBackend` uses (one
        ``/batch`` request) — so both transports share cache behaviour
        as well as answers."""
        answer = self.batch(BatchRequest(journeys=tuple(requests)))
        return list(answer.journeys)

    def batch(
        self, request: BatchRequest | Sequence[tuple[int, int]]
    ) -> BatchAnswer:
        service = self.service
        body = wire.batch_body(as_request(BatchRequest, request))
        req = self._parse(
            parse_batch_request, body, service.timetable.num_stations
        )
        return decode_batch(
            encode_batch(
                service.batch(req),
                num_stations=service.timetable.num_stations,
            )
        )

    def multicriteria(
        self,
        request: MulticriteriaRequest | int,
        target: int | None = None,
        *,
        departure: int | None = None,
        max_transfers: int | None = None,
    ) -> MulticriteriaResult:
        service = self.service
        body = wire.multicriteria_body(
            as_request(
                MulticriteriaRequest,
                request,
                target=target,
                departure=departure,
                max_transfers=max_transfers,
            )
        )
        req = self._parse(
            parse_multicriteria_request, body, service.timetable.num_stations
        )
        return decode_multicriteria(
            encode_multicriteria(service.multicriteria(req))
        )

    def via(
        self,
        request: ViaRequest | int,
        via: int | None = None,
        target: int | None = None,
        *,
        departure: int | None = None,
    ) -> ViaResult:
        service = self.service
        body = wire.via_body(
            as_request(
                ViaRequest,
                request,
                via=via,
                target=target,
                departure=departure,
            )
        )
        req = self._parse(
            parse_via_request, body, service.timetable.num_stations
        )
        return decode_via(encode_via(service.via(req)))

    def min_transfers(
        self,
        request: MinTransfersRequest | int,
        target: int | None = None,
        *,
        departure: int | None = None,
        max_transfers: int | None = None,
    ) -> MinTransfersResult:
        service = self.service
        body = wire.min_transfers_body(
            as_request(
                MinTransfersRequest,
                request,
                target=target,
                departure=departure,
                max_transfers=max_transfers,
            )
        )
        req = self._parse(
            parse_min_transfers_request, body, service.timetable.num_stations
        )
        return decode_min_transfers(
            encode_min_transfers(service.min_transfers(req))
        )

    def iter_batch(
        self, request: BatchRequest | Sequence[tuple[int, int]]
    ) -> Iterator[JourneyAnswer | ProfileAnswer]:
        """Stream a batch: yield each answer as it completes instead of
        materializing a :class:`BatchAnswer`.  Items are answered (and
        yielded) in submission order, journeys before profiles — the
        same per-item execution on every transport, so answers match
        :class:`HttpBackend.iter_batch` item for item."""
        req = as_request(BatchRequest, request)
        for journey in req.journeys:
            yield self.journey(journey)
        for profile in req.profiles:
            yield self.profile(profile)

    # -- delays and metadata ---------------------------------------------

    def apply_delays(
        self,
        delays: Sequence[Delay],
        *,
        slack_per_leg: int = 0,
        replan: str = "full",
    ) -> DelayUpdate:
        service = self.service
        body = wire.delays_body(delays, slack_per_leg, replan=replan)
        command = self._parse(
            parse_delay_request, body, service.timetable.num_trains
        )
        parsed, slack = list(command.delays), command.slack_per_leg
        with self._swap_lock:
            old = self._service if self._service is not None else service
            t0 = time.perf_counter()
            try:
                new = old.apply_delays(
                    parsed, slack_per_leg=slack, mode=command.replan
                )
            except ValueError as exc:
                # The same mapping the server applies to domain
                # validation the wire layer cannot see (e.g. from_stop
                # past the train's run): a typed 400.
                raise error_from_payload(
                    400, error_payload("invalid_request", str(exc))
                ) from None
            elapsed = time.perf_counter() - t0
            self._service = new
            self._generation += 1
            generation = self._generation
        return DelayUpdate(
            dataset=self.name,
            generation=generation,
            num_delays=len(parsed),
            slack_per_leg=slack,
            swap_seconds=round(elapsed, 6),
        )

    def info(self) -> DatasetInfo:
        """The dataset summary, in the exact ``/v1/datasets`` entry
        shape (:meth:`repro.server.registry.DatasetEntry.describe`)."""
        service = self.service
        timetable = service.timetable
        return decode_info(
            {
                "name": self.name,
                "source": self.source,
                "generation": self._generation,
                "timetable": timetable.name,
                "stations": timetable.num_stations,
                "trains": timetable.num_trains,
                "connections": timetable.num_connections,
                "kernel": service.config.kernel,
                "has_distance_table": service.table is not None,
            }
        )

    # -- internals --------------------------------------------------------

    @staticmethod
    def _parse(parser, body: dict, bound: int):
        """Run one of the server's wire parsers; a rejection raises the
        same typed exception the HTTP transport would surface."""
        try:
            return parser(body, bound)
        except ProtocolError as exc:
            raise error_from_payload(exc.status, exc.payload()) from None


def _looks_remote(target: str) -> bool:
    return target.startswith(("http://", "https://"))


def connect(
    target: TransitService | str | Path, **options
) -> "TransitBackend":
    """One constructor for both transports.

    ``http(s)://host:port[/dataset]`` builds an
    :class:`~repro.client.http.HttpBackend` (the trailing path segment
    names the dataset; omit it when the server serves exactly one);
    anything else is a store directory (or a live
    :class:`TransitService`) behind a :class:`LocalBackend`.  Keyword
    options go to the chosen constructor.
    """
    if isinstance(target, str) and _looks_remote(target):
        # Imported here: keeps LocalBackend importable without the
        # HTTP machinery and avoids a module cycle.
        from repro.client.http import HttpBackend

        return HttpBackend(target, **options)
    return LocalBackend(target, **options)


__all__ = [
    "BatchAnswer",
    "DatasetInfo",
    "DelayUpdate",
    "JourneyAnswer",
    "LocalBackend",
    "ProfileAnswer",
    "TransitBackend",
    "connect",
]
