"""Golden wire bytes: the request bodies the SDK renders, the answers
the server encodes, and the typed errors it answers malformed bodies
with, pinned byte for byte in ``wire_golden.json``.

Every case runs against a real :class:`TransitServer` (one per module,
cases in a fixed order so result-cache hits are deterministic).  Wall
clock fields (``*_seconds``) are zeroed; everything else — key order
included — must match the fixture exactly.  Regenerate the fixture
only for an intended wire change::

    PYTHONPATH=src:. python tests/server/test_wire_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.client import LocalBackend, wire
from repro.client.errors import BackendError
from repro.server import DatasetRegistry
from repro.service import (
    BatchRequest,
    JourneyRequest,
    MinTransfersRequest,
    MulticriteriaRequest,
    ProfileRequest,
    ServiceConfig,
    TransitService,
    ViaRequest,
)
from repro.timetable.delays import Delay

from tests.server.harness import ServerHarness

FIXTURE = Path(__file__).with_name("wire_golden.json")

CONFIG = ServiceConfig(
    num_threads=2,
    use_distance_table=True,
    transfer_fraction=0.25,
)

#: ``(case, endpoint, rendered body)`` in the order they are served.
#: The delay swap goes last: it changes what later answers would be.
REQUESTS = (
    ("profile", "profile", lambda: wire.profile_body(ProfileRequest(3))),
    (
        "profile-targets",
        "profile",
        lambda: wire.profile_body(ProfileRequest(3, num_threads=2), [0, 5, 9]),
    ),
    ("journey", "journey", lambda: wire.journey_body(JourneyRequest(0, 5))),
    (
        "journey-departure",
        "journey",
        lambda: wire.journey_body(JourneyRequest(2, 9, 480)),
    ),
    (
        "batch",
        "batch",
        lambda: wire.batch_body(
            BatchRequest(
                journeys=(JourneyRequest(0, 5), JourneyRequest(2, 9, 480)),
                profiles=(ProfileRequest(4), ProfileRequest(7, num_threads=1)),
            )
        ),
    ),
    (
        "multicriteria",
        "multicriteria",
        lambda: wire.multicriteria_body(MulticriteriaRequest(2, 5, 480)),
    ),
    (
        "multicriteria-budget0-unreachable",
        "multicriteria",
        lambda: wire.multicriteria_body(
            MulticriteriaRequest(2, 5, 480, max_transfers=0)
        ),
    ),
    ("via", "via", lambda: wire.via_body(ViaRequest(2, 5, 7, 480))),
    ("via-at-source", "via", lambda: wire.via_body(ViaRequest(2, 2, 5, 480))),
    ("via-at-target", "via", lambda: wire.via_body(ViaRequest(2, 5, 5, 480))),
    (
        "min-transfers",
        "min-transfers",
        lambda: wire.min_transfers_body(MinTransfersRequest(2, 5, 480)),
    ),
    (
        "min-transfers-unreachable",
        "min-transfers",
        lambda: wire.min_transfers_body(
            MinTransfersRequest(2, 5, 480, max_transfers=0)
        ),
    ),
    (
        "delays",
        "delays",
        lambda: wire.delays_body(
            [Delay(train=3, minutes=10), Delay(train=7, minutes=5, from_stop=1)],
            slack_per_leg=1,
            replan="incremental",
        ),
    ),
)

#: Typed requests whose required field is ``None``: the SDK renders
#: them as-is and the server's validation rejects them.
TYPED_NONE = (
    ("typed-none-profile", "profile", ProfileRequest(None)),
    ("typed-none-journey", "journey", JourneyRequest(None, 5)),
    (
        "typed-none-batch",
        "batch",
        BatchRequest(journeys=(JourneyRequest(2, None),)),
    ),
    (
        "typed-none-multicriteria",
        "multicriteria",
        MulticriteriaRequest(2, 5, None),
    ),
    ("typed-none-via", "via", ViaRequest(2, None, 5, 480)),
    (
        "typed-none-min-transfers",
        "min-transfers",
        MinTransfersRequest(2, 5, 480, None),
    ),
)

_BODY = {
    "profile": wire.profile_body,
    "journey": wire.journey_body,
    "batch": wire.batch_body,
    "multicriteria": wire.multicriteria_body,
    "via": wire.via_body,
    "min-transfers": wire.min_transfers_body,
}

#: ``(case, endpoint, raw request body)``; oahu/tiny has 12 stations
#: and 1940 trains.
MALFORMED = (
    # the flat journey shape, one case per rejection kind
    ("journey-missing-target", "journey", '{"source": 0}'),
    ("journey-null-source", "journey", '{"source": null, "target": 5}'),
    (
        "journey-bool-departure",
        "journey",
        '{"source": 0, "target": 5, "departure": true}',
    ),
    ("journey-string-target", "journey", '{"source": 0, "target": "5"}'),
    ("journey-float-source", "journey", '{"source": 1.0, "target": 5}'),
    ("journey-target-out-of-range", "journey", '{"source": 0, "target": 12}'),
    ("journey-source-negative", "journey", '{"source": -1, "target": 5}'),
    (
        "journey-departure-negative",
        "journey",
        '{"source": 0, "target": 5, "departure": -1}',
    ),
    (
        "journey-unknown-field",
        "journey",
        '{"source": 0, "target": 5, "arrival": 3}',
    ),
    (
        "journey-unknown-before-missing",
        "journey",
        '{"target": 5, "zzz": 1}',
    ),
    ("journey-bad-v", "journey", '{"v": 2, "source": 0, "target": 5}'),
    ("journey-string-v", "journey", '{"v": "1", "source": 0, "target": 5}'),
    ("journey-bool-v", "journey", '{"v": true, "source": 0, "target": 5}'),
    ("journey-non-object", "journey", "[0, 5]"),
    ("journey-string-body", "journey", '"journey"'),
    ("journey-not-json", "journey", '{"source": 0'),
    ("journey-empty-body", "journey", ""),
    # profile
    ("profile-missing-source", "profile", "{}"),
    ("profile-null-source", "profile", '{"source": null}'),
    ("profile-threads-zero", "profile", '{"source": 0, "num_threads": 0}'),
    ("profile-threads-too-many", "profile", '{"source": 0, "num_threads": 65}'),
    ("profile-threads-bool", "profile", '{"source": 0, "num_threads": false}'),
    ("profile-targets-empty", "profile", '{"source": 0, "targets": []}'),
    ("profile-targets-not-list", "profile", '{"source": 0, "targets": 3}'),
    ("profile-targets-string", "profile", '{"source": 0, "targets": [0, "1"]}'),
    ("profile-targets-bool", "profile", '{"source": 0, "targets": [true]}'),
    ("profile-targets-out-of-range", "profile", '{"source": 0, "targets": [12]}'),
    ("profile-unknown-field", "profile", '{"source": 0, "target": 1}'),
    # batch and its items
    ("batch-empty", "batch", "{}"),
    ("batch-empty-lists", "batch", '{"journeys": [], "profiles": []}'),
    ("batch-journeys-not-list", "batch", '{"journeys": {}}'),
    ("batch-profiles-null", "batch", '{"profiles": null}'),
    ("batch-unknown-field", "batch", '{"journeys": [], "pairs": []}'),
    ("batch-bad-v", "batch", '{"v": 0, "journeys": []}'),
    ("batch-item-non-object", "batch", '{"journeys": [[0, 5]]}'),
    (
        "batch-item-v",
        "batch",
        '{"journeys": [{"v": 1, "source": 0, "target": 5}]}',
    ),
    ("batch-item-missing-target", "batch", '{"journeys": [{"source": 0}]}'),
    (
        "batch-item-null-departure",
        "batch",
        '{"journeys": [{"source": 0, "target": 5, "departure": null}]}',
    ),
    (
        "batch-second-item-out-of-range",
        "batch",
        '{"journeys": [{"source": 0, "target": 5}, {"source": 0, "target": 99}]}',
    ),
    (
        "batch-profile-item-targets",
        "batch",
        '{"profiles": [{"source": 0, "targets": [1]}]}',
    ),
    (
        "batch-profile-item-threads-zero",
        "batch",
        '{"profiles": [{"source": 0, "num_threads": 0}]}',
    ),
    ("batch-profile-item-string", "batch", '{"profiles": [{"source": "0"}]}'),
    # multicriteria
    (
        "multicriteria-missing-departure",
        "multicriteria",
        '{"source": 2, "target": 5}',
    ),
    (
        "multicriteria-null-departure",
        "multicriteria",
        '{"source": 2, "target": 5, "departure": null}',
    ),
    (
        "multicriteria-bool-source",
        "multicriteria",
        '{"source": false, "target": 5, "departure": 480}',
    ),
    (
        "multicriteria-budget-too-large",
        "multicriteria",
        '{"source": 2, "target": 5, "departure": 480, "max_transfers": 17}',
    ),
    (
        "multicriteria-budget-negative",
        "multicriteria",
        '{"source": 2, "target": 5, "departure": 480, "max_transfers": -1}',
    ),
    (
        "multicriteria-budget-null",
        "multicriteria",
        '{"source": 2, "target": 5, "departure": 480, "max_transfers": null}',
    ),
    (
        "multicriteria-unknown-field",
        "multicriteria",
        '{"source": 2, "target": 5, "departure": 480, "via": 3}',
    ),
    (
        "multicriteria-bad-v",
        "multicriteria",
        '{"v": 9, "source": 2, "target": 5, "departure": 480}',
    ),
    ("multicriteria-non-object", "multicriteria", "null"),
    # via
    ("via-missing-via", "via", '{"source": 2, "target": 5, "departure": 480}'),
    (
        "via-out-of-range-via",
        "via",
        '{"source": 2, "via": 12, "target": 5, "departure": 480}',
    ),
    (
        "via-null-departure",
        "via",
        '{"source": 2, "via": 3, "target": 5, "departure": null}',
    ),
    (
        "via-string-via",
        "via",
        '{"source": 2, "via": "3", "target": 5, "departure": 480}',
    ),
    (
        "via-unknown-field",
        "via",
        '{"source": 2, "via": 3, "target": 5, "departure": 480, '
        '"max_transfers": 2}',
    ),
    ("via-non-object", "via", "7"),
    # min-transfers
    (
        "min-transfers-missing-departure",
        "min-transfers",
        '{"source": 2, "target": 5}',
    ),
    (
        "min-transfers-string-departure",
        "min-transfers",
        '{"source": 2, "target": 5, "departure": "480"}',
    ),
    (
        "min-transfers-budget-too-large",
        "min-transfers",
        '{"source": 2, "target": 5, "departure": 480, "max_transfers": 100}',
    ),
    (
        "min-transfers-budget-bool",
        "min-transfers",
        '{"source": 2, "target": 5, "departure": 480, "max_transfers": true}',
    ),
    (
        "min-transfers-unknown-field",
        "min-transfers",
        '{"source": 2, "target": 5, "departure": 480, "options": []}',
    ),
    # delays
    ("delays-missing-list", "delays", "{}"),
    ("delays-empty-list", "delays", '{"delays": []}'),
    ("delays-item-non-object", "delays", '{"delays": [3]}'),
    ("delays-item-unknown", "delays", '{"delays": [{"train": 1, "minutes": 2, "x": 0}]}'),
    ("delays-train-out-of-range", "delays", '{"delays": [{"train": 1940, "minutes": 2}]}'),
    ("delays-minutes-null", "delays", '{"delays": [{"train": 1, "minutes": null}]}'),
    ("delays-bad-mode", "delays", '{"mode": "swap", "delays": [{"train": 1, "minutes": 2}]}'),
    ("delays-bad-replan", "delays", '{"replan": "fast", "delays": [{"train": 1, "minutes": 2}]}'),
    ("delays-commit-without-token", "delays", '{"mode": "commit"}'),
    ("delays-apply-with-token", "delays", '{"token": 1, "delays": [{"train": 1, "minutes": 2}]}'),
    ("delays-slack-negative", "delays", '{"slack_per_leg": -1, "delays": [{"train": 1, "minutes": 2}]}'),
    ("delays-non-object", "delays", "[]"),
    # routing
    ("unknown-shape", "nearest", '{"source": 0}'),
    ("unknown-dataset", "@nowhere/journey", '{"source": 0, "target": 5}'),
)


def _path(endpoint: str) -> str:
    if endpoint == "delays":
        return "/v1/datasets/oahu/delays"
    if endpoint.startswith("@"):
        return f"/v1/{endpoint[1:]}"
    return f"/v1/oahu/{endpoint}"


def _zero_seconds(payload):
    if isinstance(payload, dict):
        return {
            key: 0.0 if key.endswith("_seconds") else _zero_seconds(value)
            for key, value in payload.items()
        }
    if isinstance(payload, list):
        return [_zero_seconds(item) for item in payload]
    return payload


def _error_triple(status: int, payload: dict) -> list:
    error = payload["error"]
    return [status, error["code"], error.get("field")]


def render(harness: ServerHarness) -> dict:
    """Serve every case once, in order; the fixture's content."""
    requests: dict[str, str] = {}
    responses: dict[str, str] = {}
    errors: dict[str, list] = {}
    cases = [(name, endpoint, fn()) for name, endpoint, fn in REQUESTS]
    for name, endpoint, body in cases:
        requests[name] = json.dumps(body)
    for name, endpoint, request in TYPED_NONE:
        requests[name] = json.dumps(_BODY[endpoint](request))
    for name, endpoint, raw in MALFORMED:
        status, payload = harness.request("POST", _path(endpoint), raw)
        errors[name] = _error_triple(status, payload)
    for name, endpoint, _request in TYPED_NONE:
        status, payload = harness.request(
            "POST", _path(endpoint), requests[name]
        )
        errors[name] = _error_triple(status, payload)
    for name, endpoint, _body in cases:
        status, payload = harness.request(
            "POST", _path(endpoint), requests[name]
        )
        assert status == 200, (name, payload)
        responses[name] = json.dumps(_zero_seconds(payload))
    return {"requests": requests, "responses": responses, "errors": errors}


def _serve(timetable) -> ServerHarness:
    service = TransitService(timetable, CONFIG)
    return ServerHarness(DatasetRegistry.from_services({"oahu": service}))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def rendered(oahu_tiny) -> dict:
    harness = _serve(oahu_tiny)
    try:
        return render(harness)
    finally:
        harness.close()


@pytest.mark.parametrize(
    "case", [name for name, _, _ in REQUESTS] + [n for n, _, _ in TYPED_NONE]
)
def test_request_body_bytes(case, golden, rendered):
    assert rendered["requests"][case] == golden["requests"][case]


@pytest.mark.parametrize("case", [name for name, _, _ in REQUESTS])
def test_response_bytes(case, golden, rendered):
    assert rendered["responses"][case] == golden["responses"][case]


@pytest.mark.parametrize(
    "case", [name for name, _, _ in MALFORMED] + [n for n, _, _ in TYPED_NONE]
)
def test_error_status_code_field(case, golden, rendered):
    assert rendered["errors"][case] == golden["errors"][case]


def test_fixture_covers_exactly_the_cases(golden, rendered):
    assert {k: sorted(v) for k, v in golden.items()} == {
        k: sorted(v) for k, v in rendered.items()
    }


@pytest.fixture(scope="module")
def local_backend(oahu_tiny):
    return LocalBackend(TransitService(oahu_tiny, CONFIG), name="oahu")


@pytest.mark.parametrize("case", [name for name, _, _ in TYPED_NONE])
def test_local_backend_rejects_typed_none_alike(case, golden, local_backend):
    """The in-process transport answers a typed request carrying
    ``None`` with the same typed error the server does."""
    _, endpoint, request = next(c for c in TYPED_NONE if c[0] == case)
    method = getattr(local_backend, endpoint.replace("-", "_"))
    with pytest.raises(BackendError) as excinfo:
        method(request)
    error = excinfo.value
    assert [error.status, error.code, error.field] == golden["errors"][case]


if __name__ == "__main__":
    from repro.synthetic.instances import make_instance

    harness = _serve(make_instance("oahu", scale="tiny"))
    try:
        content = render(harness)
    finally:
        harness.close()
    FIXTURE.write_text(json.dumps(content, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
