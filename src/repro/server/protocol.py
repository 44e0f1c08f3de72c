"""Versioned JSON wire schema of the query server.

Every request and response body is one JSON object carrying the
protocol version under ``"v"`` (:data:`PROTOCOL_VERSION`; requests may
omit it and get the current version, an explicit mismatch is
rejected).  Request objects map one-to-one onto the service layer's
typed requests:

======================  ===============================================
endpoint                service request
======================  ===============================================
``profile``             :class:`~repro.service.model.ProfileRequest`,
                        plus ``targets`` (which profiles to encode)
``journey``             :class:`~repro.service.model.JourneyRequest`
``batch``               :class:`~repro.service.model.BatchRequest`: lists
                        of journey and profile objects without ``v``
``multicriteria``       :class:`~repro.service.model.MulticriteriaRequest`
``via``                 :class:`~repro.service.model.ViaRequest`
``min-transfers``       :class:`~repro.service.model.MinTransfersRequest`
``datasets/…/delays``   ``TransitService.apply_delays`` input
======================  ===============================================

A flat request object carries exactly its dataclass's fields: the
dataclass declares their names, order, required-ness and defaults, and
one parser (:func:`_parse_fields`) reads them, taking each field's
bounds from :data:`_FIELD_BOUNDS` by name.  The ``_*_FIELDS`` sets
spell out each endpoint's allowed fields again on purpose: they guard
untrusted input, and the ``WIRE-PARITY`` lint checks the client's
renderers against them.

Validation is strict: unknown fields, wrong types, and out-of-range
stations/trains are rejected with a typed :class:`ProtocolError`
before any search runs.  Errors serialize to a uniform payload::

    {"v": 1, "error": {"code": "...", "message": "...", "field": ...}}

and carry the HTTP status the server should answer with.  Encoding is
deterministic — all payload numbers are plain ints (minutes since
midnight for times, :data:`~repro.functions.piecewise.INF_TIME` for
unreachable) — which is what lets the end-to-end tests pin server
answers bitwise-identical to direct :class:`TransitService` calls
(``tests/server/test_server_e2e.py``).

Everything here is pure: no I/O, no asyncio — the module is equally
usable by the server, by clients, and by tests.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from functools import cache
from typing import Sequence, TypeVar

from repro.query.batch import BatchStats
from repro.service.model import (
    BatchRequest,
    BatchResponse,
    JourneyLeg,
    JourneyRequest,
    JourneyResult,
    MinTransfersRequest,
    MinTransfersResult,
    MulticriteriaRequest,
    MulticriteriaResult,
    ProfileRequest,
    ProfileResult,
    QueryStats,
    ViaRequest,
    ViaResult,
)
from repro.timetable.delays import Delay

#: Bumped on any incompatible change to the wire schema.
PROTOCOL_VERSION = 1

#: Cap on wire-requested per-query cores: ``num_threads`` sizes the
#: connection partitioning (allocations scale with it), so an
#: unauthenticated request must not be able to ask for millions.
MAX_NUM_THREADS = 64

#: Cap on wire-requested transfer budgets: the multi-criteria label
#: volume scales linearly with ``max_transfers + 1`` layers, so an
#: unauthenticated request must not be able to ask for thousands.
MAX_MC_TRANSFERS = 16

#: The ``POST /v1/{name}/<shape>`` query endpoints.
QUERY_SHAPES = (
    "profile",
    "journey",
    "batch",
    "multicriteria",
    "via",
    "min-transfers",
)

RequestT = TypeVar("RequestT")


class ProtocolError(Exception):
    """A request the wire schema rejects, with its HTTP status.

    ``code`` is a stable machine-readable identifier (clients branch on
    it; the exact ``message`` text is not contractual), ``field`` names
    the offending request field when one can be singled out.
    """

    def __init__(
        self,
        code: str,
        message: str,
        *,
        field: str | None = None,
        status: int = 400,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.field = field
        self.status = status

    def payload(self) -> dict:
        return error_payload(self.code, self.message, field=self.field)


def parse_body(body: bytes) -> object:
    """Decode a request body as JSON; an empty or malformed body is a
    :class:`ProtocolError`."""
    if not body:
        raise ProtocolError("invalid_request", "request body is empty")
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise ProtocolError(
            "invalid_json", f"request body is not valid JSON: {exc}"
        ) from None


def error_payload(
    code: str,
    message: str,
    *,
    field: str | None = None,
    retriable: bool = False,
) -> dict:
    """The error envelope every front answers with (module doc);
    ``retriable`` marks the 503/502s a client should retry."""
    error: dict = {"code": code, "message": message}
    if field is not None:
        error["field"] = field
    if retriable:
        error["retriable"] = True
    return {"v": PROTOCOL_VERSION, "error": error}


# ---------------------------------------------------------------------------
# Validation primitives
# ---------------------------------------------------------------------------


def _require_object(body: object, *, what: str = "request body") -> dict:
    if not isinstance(body, dict):
        raise ProtocolError(
            "invalid_request",
            f"{what} must be a JSON object, got {type(body).__name__}",
        )
    return body


def _check_version(body: dict) -> None:
    version = body.get("v", PROTOCOL_VERSION)
    if not isinstance(version, int) or isinstance(version, bool):
        raise ProtocolError(
            "invalid_request", "protocol version must be an integer", field="v"
        )
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported_version",
            f"protocol version {version} is not supported "
            f"(this server speaks version {PROTOCOL_VERSION})",
            field="v",
        )


def _reject_unknown(obj: dict, allowed: frozenset[str], *, where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ProtocolError(
            "unknown_field",
            f"unknown field(s) {unknown} in {where} "
            f"(allowed: {sorted(allowed)})",
            field=unknown[0],
        )


def _int_field(
    obj: dict,
    name: str,
    *,
    where: str,
    required: bool = False,
    default: int | None = None,
    lo: int | None = None,
    hi: int | None = None,
) -> int | None:
    if name not in obj:
        if required:
            raise ProtocolError(
                "missing_field", f"{where} needs {name!r}", field=name
            )
        return default
    value = obj[name]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(
            "invalid_type",
            f"{where}.{name} must be an integer, "
            f"got {type(value).__name__}",
            field=name,
        )
    if lo is not None and value < lo:
        raise ProtocolError(
            "out_of_range", f"{where}.{name} must be >= {lo}, got {value}",
            field=name,
        )
    if hi is not None and value >= hi:
        raise ProtocolError(
            "out_of_range",
            f"{where}.{name} must be < {hi}, got {value}",
            field=name,
        )
    return value


#: Stands for the dataset's station count in :data:`_FIELD_BOUNDS`.
_STATIONS = -1

#: Bounds ``(lo, hi)`` of every request-dataclass field by name, ``hi``
#: exclusive (``None``: unbounded).  Which fields a shape has, in which
#: order, and which are required with what default, comes from the
#: service dataclass itself (:func:`_parse_fields`).
_FIELD_BOUNDS: dict[str, tuple[int, int | None]] = {
    "source": (0, _STATIONS),
    "via": (0, _STATIONS),
    "target": (0, _STATIONS),
    "departure": (0, None),
    "max_transfers": (0, MAX_MC_TRANSFERS + 1),
    "num_threads": (1, MAX_NUM_THREADS + 1),
}

@cache
def _field_specs(cls: type) -> tuple[tuple[str, bool, object], ...]:
    """``(name, required, default)`` of each field of a request
    dataclass, in declaration order."""
    return tuple(
        (f.name, f.default is MISSING, f.default) for f in fields(cls)
    )


def _parse_fields(
    cls: type[RequestT], obj: dict, num_stations: int, *, where: str
) -> RequestT:
    """Build a ``cls`` request from the wire object ``obj``, checking
    its fields in declaration order (so the first bad field is the one
    an error names)."""
    values = []
    for name, required, default in _field_specs(cls):
        lo, hi = _FIELD_BOUNDS[name]
        values.append(
            _int_field(
                obj,
                name,
                where=where,
                required=required,
                default=default,
                lo=lo,
                hi=num_stations if hi == _STATIONS else hi,
            )
        )
    return cls(*values)


def _parse_flat(
    cls: type[RequestT],
    body: object,
    num_stations: int,
    allowed: frozenset[str],
    where: str,
) -> RequestT:
    """Parse a request body that is one flat ``cls`` object."""
    obj = _require_object(body)
    _check_version(obj)
    _reject_unknown(obj, allowed, where=f"{where} request")
    return _parse_fields(cls, obj, num_stations, where=where)


# ---------------------------------------------------------------------------
# Request parsing
# ---------------------------------------------------------------------------

_PROFILE_FIELDS = frozenset({"v", "source", "num_threads", "targets"})
_JOURNEY_FIELDS = frozenset({"v", "source", "target", "departure"})
_BATCH_FIELDS = frozenset({"v", "journeys", "profiles"})
_MULTICRITERIA_FIELDS = frozenset(
    {"v", "source", "target", "departure", "max_transfers"}
)
_VIA_FIELDS = frozenset({"v", "source", "via", "target", "departure"})
_MIN_TRANSFERS_FIELDS = frozenset(
    {"v", "source", "target", "departure", "max_transfers"}
)
_DELAY_FIELDS = frozenset(
    {"v", "delays", "slack_per_leg", "mode", "token", "replan", "generations"}
)
_DELAY_ITEM_FIELDS = frozenset({"train", "minutes", "from_stop"})

#: Hot-swap phases on ``POST /v1/datasets/{name}/delays``.  ``apply``
#: (the default, and the whole protocol before two-phase swaps)
#: replans and swaps in one request.  ``prepare`` replans but keeps
#: serving the old timetable, answering with a ``token``; ``commit``
#: atomically swaps a prepared replan in; ``abort`` discards it.  The
#: fleet gateway drives prepare-on-all → commit-on-all so no client
#: ever observes a mixed old/new answer across workers
#: (``docs/FLEET.md``).
DELAY_MODES = ("apply", "prepare", "commit", "abort")

#: How the worker re-derives travel-time artifacts for a batch.
#: ``full`` (the default and the oracle) cold-rebuilds graph, arrays
#: and table; ``incremental`` delta-replans only what the batch touches
#: (:func:`repro.service.prepare.replan_dataset`) — bitwise-identical
#: answers, much cheaper for small batches (``docs/STREAMS.md``).
DELAY_REPLAN_MODES = ("full", "incremental")


def parse_profile_request(
    body: object, num_stations: int
) -> tuple[ProfileRequest, tuple[int, ...] | None]:
    """Parse a one-to-all request.  Returns the service request plus
    the optional response restriction: ``targets`` limits which
    stations the response encodes profiles for (the search itself is
    always one-to-all)."""
    obj = _require_object(body)
    request = _parse_flat(
        ProfileRequest, obj, num_stations, _PROFILE_FIELDS, "profile"
    )
    targets: tuple[int, ...] | None = None
    if "targets" in obj:
        raw = obj["targets"]
        if not isinstance(raw, list) or not raw:
            raise ProtocolError(
                "invalid_type",
                "profile.targets must be a non-empty list of stations",
                field="targets",
            )
        checked: list[int] = []
        for i, t in enumerate(raw):
            if not isinstance(t, int) or isinstance(t, bool):
                raise ProtocolError(
                    "invalid_type",
                    f"profile.targets[{i}] must be an integer",
                    field="targets",
                )
            if not 0 <= t < num_stations:
                raise ProtocolError(
                    "out_of_range",
                    f"profile.targets[{i}] must be within "
                    f"[0, {num_stations}), got {t}",
                    field="targets",
                )
            checked.append(t)
        targets = tuple(checked)
    return request, targets


def parse_journey_request(body: object, num_stations: int) -> JourneyRequest:
    return _parse_flat(
        JourneyRequest, body, num_stations, _JOURNEY_FIELDS, "journey"
    )


def parse_batch_request(body: object, num_stations: int) -> BatchRequest:
    obj = _require_object(body)
    _check_version(obj)
    _reject_unknown(obj, _BATCH_FIELDS, where="batch request")
    journeys = _parse_items(
        obj, "journeys", JourneyRequest, _JOURNEY_FIELDS - {"v"}, num_stations
    )
    profiles = _parse_items(
        obj,
        "profiles",
        ProfileRequest,
        _PROFILE_FIELDS - {"v", "targets"},
        num_stations,
    )
    if not journeys and not profiles:
        raise ProtocolError(
            "invalid_request",
            "batch request needs at least one journey or profile",
        )
    return BatchRequest(journeys=journeys, profiles=profiles)


def _parse_items(
    obj: dict,
    name: str,
    cls: type[RequestT],
    allowed: frozenset[str],
    num_stations: int,
) -> tuple[RequestT, ...]:
    """The ``cls`` items of the batch list ``name``, each a flat
    object with the ``allowed`` fields."""
    raw = obj.get(name, [])
    if not isinstance(raw, list):
        raise ProtocolError(
            "invalid_type",
            f"batch.{name} must be a list, got {type(raw).__name__}",
            field=name,
        )
    items = []
    for i, item in enumerate(raw):
        where = f"batch.{name}[{i}]"
        sub = _require_object(item, what=where)
        _reject_unknown(sub, allowed, where=where)
        items.append(_parse_fields(cls, sub, num_stations, where=where))
    return tuple(items)


def parse_multicriteria_request(
    body: object, num_stations: int
) -> MulticriteriaRequest:
    return _parse_flat(
        MulticriteriaRequest,
        body,
        num_stations,
        _MULTICRITERIA_FIELDS,
        "multicriteria",
    )


def parse_via_request(body: object, num_stations: int) -> ViaRequest:
    return _parse_flat(ViaRequest, body, num_stations, _VIA_FIELDS, "via")


def parse_min_transfers_request(
    body: object, num_stations: int
) -> MinTransfersRequest:
    return _parse_flat(
        MinTransfersRequest,
        body,
        num_stations,
        _MIN_TRANSFERS_FIELDS,
        "min-transfers",
    )


@dataclass(frozen=True, slots=True)
class DelayCommand:
    """One parsed ``/delays`` request: a swap phase plus its input.

    ``apply``/``prepare`` carry the delay batch (``delays`` non-empty,
    ``token`` ``None``); ``commit``/``abort`` carry only the ``token``
    a prior ``prepare`` answered with (``delays`` empty).

    ``replan`` picks the rebuild strategy (:data:`DELAY_REPLAN_MODES`);
    ``advance`` is how many logical delay batches this request
    represents — always 1 except for coalesced fleet catch-up posts
    (wire field ``generations``), where one apply stands in for a run
    of committed batches and the worker's generation must advance by
    the whole run (``docs/FLEET.md``)."""

    mode: str
    delays: tuple[Delay, ...]
    slack_per_leg: int
    token: int | None
    replan: str = "full"
    advance: int = 1


def parse_delay_request(body: object, num_trains: int) -> DelayCommand:
    """Parse a hot-swap request into a :class:`DelayCommand`.

    ``from_stop`` bounds depend on each train's run length, which only
    ``apply_delays`` knows — the registry surfaces its ``ValueError``
    as a 400, so a bad ``from_stop`` is still a typed client error."""
    obj = _require_object(body)
    _check_version(obj)
    _reject_unknown(obj, _DELAY_FIELDS, where="delay request")
    mode = obj.get("mode", "apply")
    if mode not in DELAY_MODES:
        raise ProtocolError(
            "invalid_request",
            f"delay request mode must be one of {list(DELAY_MODES)}, "
            f"got {mode!r}",
            field="mode",
        )
    if mode in ("commit", "abort"):
        for name in ("delays", "slack_per_leg", "replan", "generations"):
            if name in obj:
                raise ProtocolError(
                    "invalid_request",
                    f"a {mode} request must not carry {name!r} "
                    f"(the prepared replan already holds them)",
                    field=name,
                )
        token = _int_field(
            obj, "token", where=f"{mode} request", required=True, lo=0
        )
        return DelayCommand(mode=mode, delays=(), slack_per_leg=0, token=token)
    if "token" in obj:
        raise ProtocolError(
            "invalid_request",
            f"an {mode} request must not carry 'token' "
            f"(tokens are answered by prepare)",
            field="token",
        )
    replan = obj.get("replan", "full")
    if replan not in DELAY_REPLAN_MODES:
        raise ProtocolError(
            "invalid_request",
            f"delay request replan must be one of {list(DELAY_REPLAN_MODES)}, "
            f"got {replan!r}",
            field="replan",
        )
    if mode == "prepare" and "generations" in obj:
        raise ProtocolError(
            "invalid_request",
            "a prepare request must not carry 'generations' "
            "(coalesced catch-up is apply-only)",
            field="generations",
        )
    advance = _int_field(
        obj, "generations", where="delay request", default=1, lo=1
    )
    raw = obj.get("delays")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError(
            "invalid_request",
            "delay request needs a non-empty 'delays' list",
            field="delays",
        )
    slack = _int_field(
        obj, "slack_per_leg", where="delay request", default=0, lo=0
    )
    delays: list[Delay] = []
    for i, item in enumerate(raw):
        sub = _require_object(item, what=f"delays[{i}]")
        _reject_unknown(sub, _DELAY_ITEM_FIELDS, where=f"delays[{i}]")
        train = _int_field(
            sub, "train", where=f"delays[{i}]", required=True,
            lo=0, hi=num_trains,
        )
        minutes = _int_field(
            sub, "minutes", where=f"delays[{i}]", required=True, lo=0
        )
        from_stop = _int_field(
            sub, "from_stop", where=f"delays[{i}]", default=0, lo=0
        )
        delays.append(Delay(train=train, minutes=minutes, from_stop=from_stop))
    return DelayCommand(
        mode=mode,
        delays=tuple(delays),
        slack_per_leg=slack,
        token=None,
        replan=replan,
        advance=advance,
    )


# ---------------------------------------------------------------------------
# Response encoding
# ---------------------------------------------------------------------------


def _points(profile) -> list[list[int]]:
    return [[int(dep), int(dur)] for dep, dur in profile.connection_points()]


def encode_legs(legs: Sequence[JourneyLeg] | None) -> list[dict] | None:
    """The itinerary every journey-like answer carries (``None`` when
    there is none)."""
    if legs is None:
        return None
    return [
        {
            "from_station": leg.from_station,
            "to_station": leg.to_station,
            "departure": leg.departure,
            "arrival": leg.arrival,
        }
        for leg in legs
    ]


def encode_query_stats(stats: QueryStats) -> dict:
    return {
        "kind": stats.kind,
        "kernel": stats.kernel,
        "num_threads": stats.num_threads,
        "settled_connections": stats.settled_connections,
        "simulated_seconds": stats.simulated_seconds,
        "total_seconds": stats.total_seconds,
        "classification": stats.classification,
        "table_prunes": stats.table_prunes,
        "connection_stops": stats.connection_stops,
        "cache_hit": stats.cache_hit,
    }


def encode_batch_stats(stats: BatchStats) -> dict:
    return {
        "num_queries": stats.num_queries,
        "backend": stats.backend,
        "kernel": stats.kernel,
        "num_workers": stats.num_workers,
        "setup_seconds": stats.setup_seconds,
        "total_seconds": stats.total_seconds,
    }


def encode_journey(result: JourneyResult) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "kind": "journey",
        "source": result.source,
        "target": result.target,
        "reachable": result.reachable,
        "profile": _points(result.profile),
        "departure": result.departure,
        "arrival": None if result.arrival is None else int(result.arrival),
        "legs": encode_legs(result.legs),
        "stats": encode_query_stats(result.stats),
    }


def encode_profile(
    result: ProfileResult,
    *,
    num_stations: int,
    targets: Sequence[int] | None = None,
) -> dict:
    """Encode a one-to-all answer; ``targets`` (from the request)
    restricts which stations' profiles travel over the wire."""
    stations = range(num_stations) if targets is None else targets
    profiles = {
        str(t): _points(result.profile(t))
        for t in stations
        if t != result.source
    }
    return {
        "v": PROTOCOL_VERSION,
        "kind": "profile",
        "source": result.source,
        "profiles": profiles,
        "stats": encode_query_stats(result.stats),
    }


def encode_batch(response: BatchResponse, *, num_stations: int) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "kind": "batch",
        "journeys": [encode_journey(j) for j in response.journeys],
        "profiles": [
            encode_profile(p, num_stations=num_stations)
            for p in response.profiles
        ],
        "stats": encode_batch_stats(response.stats),
    }


def encode_multicriteria(result: MulticriteriaResult) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "kind": "multicriteria",
        "source": result.source,
        "target": result.target,
        "departure": result.departure,
        "max_transfers": result.max_transfers,
        "reachable": result.reachable,
        "options": [
            [int(opt.transfers), int(opt.arrival)] for opt in result.options
        ],
        "legs": encode_legs(result.legs),
        "stats": encode_query_stats(result.stats),
    }


def encode_via(result: ViaResult) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "kind": "via",
        "source": result.source,
        "via": result.via,
        "target": result.target,
        "departure": result.departure,
        "via_arrival": int(result.via_arrival),
        "arrival": int(result.arrival),
        "reachable": result.reachable,
        "legs": encode_legs(result.legs),
        "stats": encode_query_stats(result.stats),
    }


def encode_min_transfers(result: MinTransfersResult) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "kind": "min_transfers",
        "source": result.source,
        "target": result.target,
        "departure": result.departure,
        "max_transfers": result.max_transfers,
        "reachable": result.reachable,
        "transfers": (
            None if result.transfers is None else int(result.transfers)
        ),
        "arrival": int(result.arrival),
        "legs": encode_legs(result.legs),
        "stats": encode_query_stats(result.stats),
    }
