"""Typed requests → wire objects (the client side of the protocol).

The inverse direction of :mod:`repro.server.protocol`'s parsers: each
function here renders one service-layer request as the JSON-safe wire
object the ``/v1`` endpoints accept.  Both backends use these —
:class:`~repro.client.http.HttpBackend` serializes the result over
TCP, :class:`~repro.client.backend.LocalBackend` feeds it straight to
the server's own parse functions in-process — so the two transports
see byte-for-byte the same request representation, which is half of
the bitwise-parity guarantee (the other half is decoding answers
through one decoder set, :mod:`repro.client.results`).

Optional fields are *omitted* rather than sent as ``null``: the wire
schema's strict validation rejects ``None`` where an integer is
expected, and omission is the protocol's way of saying "default".

The convenience call forms every backend accepts (raw station ints,
raw (source, target) pairs) become typed requests through the service
layer's own :func:`~repro.service.model.as_request`, so the sugar
behaves identically on every transport and in the facade.
"""

from __future__ import annotations

from typing import Sequence

from repro.service.model import (
    BatchRequest,
    JourneyRequest,
    MinTransfersRequest,
    MulticriteriaRequest,
    ProfileRequest,
    ViaRequest,
)
from repro.timetable.delays import Delay


def profile_body(
    request: ProfileRequest, targets: Sequence[int] | None = None
) -> dict:
    body: dict = {"source": request.source}
    if request.num_threads is not None:
        body["num_threads"] = request.num_threads
    if targets is not None:
        body["targets"] = [int(t) for t in targets]
    return body


def journey_body(request: JourneyRequest) -> dict:
    body: dict = {"source": request.source, "target": request.target}
    if request.departure is not None:
        body["departure"] = request.departure
    return body


def batch_body(request: BatchRequest) -> dict:
    body: dict = {}
    if request.journeys:
        body["journeys"] = [journey_body(j) for j in request.journeys]
    if request.profiles:
        body["profiles"] = [profile_body(p) for p in request.profiles]
    return body


def multicriteria_body(request: MulticriteriaRequest) -> dict:
    return {
        "source": request.source,
        "target": request.target,
        "departure": request.departure,
        "max_transfers": request.max_transfers,
    }


def via_body(request: ViaRequest) -> dict:
    return {
        "source": request.source,
        "via": request.via,
        "target": request.target,
        "departure": request.departure,
    }


def min_transfers_body(request: MinTransfersRequest) -> dict:
    return {
        "source": request.source,
        "target": request.target,
        "departure": request.departure,
        "max_transfers": request.max_transfers,
    }


def delays_body(
    delays: Sequence[Delay],
    slack_per_leg: int = 0,
    replan: str = "full",
) -> dict:
    items = []
    for delay in delays:
        item: dict = {"train": delay.train, "minutes": delay.minutes}
        if delay.from_stop:
            item["from_stop"] = delay.from_stop
        items.append(item)
    body: dict = {"delays": items}
    if slack_per_leg:
        body["slack_per_leg"] = slack_per_leg
    if replan != "full":
        body["replan"] = replan
    return body
