"""Property tests of the wire codec, for all six query shapes.

* a rendered request parses back to the request it was rendered from;
* an encoded answer decodes back to the facade's answer: equal for the
  zoo shapes (whose client answers *are* the service results), equal
  point for point for journeys and profiles;
* a mutated valid body is either still valid or rejected with a
  :class:`ProtocolError` carrying a 4xx status, never anything else.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.client import wire
from repro.client.results import (
    decode_batch,
    decode_journey,
    decode_min_transfers,
    decode_multicriteria,
    decode_profile,
    decode_via,
)
from repro.server.protocol import (
    MAX_MC_TRANSFERS,
    MAX_NUM_THREADS,
    ProtocolError,
    encode_batch,
    encode_journey,
    encode_min_transfers,
    encode_multicriteria,
    encode_profile,
    encode_via,
    parse_batch_request,
    parse_journey_request,
    parse_min_transfers_request,
    parse_multicriteria_request,
    parse_profile_request,
    parse_via_request,
)
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

N = 12  # stations of oahu/tiny

stations = st.integers(0, N - 1)
departures = st.integers(0, 2 * 24 * 60)
budgets = st.integers(0, MAX_MC_TRANSFERS)

profile_requests = st.builds(
    ProfileRequest,
    stations,
    num_threads=st.none() | st.integers(1, MAX_NUM_THREADS),
)
journey_requests = st.builds(
    JourneyRequest, stations, stations, st.none() | departures
)
batch_requests = st.builds(
    BatchRequest,
    journeys=st.lists(journey_requests, max_size=4).map(tuple),
    profiles=st.lists(profile_requests, max_size=3).map(tuple),
).filter(len)
multicriteria_requests = st.builds(
    MulticriteriaRequest, stations, stations, departures, budgets
)
via_requests = st.builds(ViaRequest, stations, stations, stations, departures)
min_transfers_requests = st.builds(
    MinTransfersRequest, stations, stations, departures, budgets
)

#: shape -> (request strategy, renderer, parser)
SHAPES = {
    "journey": (journey_requests, wire.journey_body, parse_journey_request),
    "batch": (batch_requests, wire.batch_body, parse_batch_request),
    "multicriteria": (
        multicriteria_requests,
        wire.multicriteria_body,
        parse_multicriteria_request,
    ),
    "via": (via_requests, wire.via_body, parse_via_request),
    "min_transfers": (
        min_transfers_requests,
        wire.min_transfers_body,
        parse_min_transfers_request,
    ),
}

ROUND_TRIP = settings(max_examples=60, deadline=None)


def _json(payload: dict) -> dict:
    """What the HTTP transport does to a payload in between."""
    return json.loads(json.dumps(payload))


# ---------------------------------------------------------------------------
# Requests: render, then parse
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_parse_inverts_render(shape):
    strategy, render, parse = SHAPES[shape]

    @ROUND_TRIP
    @given(strategy)
    def check(req):
        assert parse(_json(render(req)), N) == req

    check()


@ROUND_TRIP
@given(
    profile_requests,
    st.none() | st.lists(stations, min_size=1, max_size=4).map(tuple),
)
def test_parse_inverts_render_profile(req, targets):
    body = _json(wire.profile_body(req, targets))
    assert parse_profile_request(body, N) == (req, targets)


# ---------------------------------------------------------------------------
# Answers: encode, then decode
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def service(oahu_tiny):
    return TransitService(
        oahu_tiny,
        ServiceConfig(
            num_threads=2, use_distance_table=True, transfer_fraction=0.25
        ),
    )


ANSWERS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
#: Small budgets keep the multicriteria searches (cached per source
#: and budget) few.
zoo_budgets = st.integers(0, 2)


zoo_fields = (stations, stations, departures, zoo_budgets)


@ANSWERS
@given(st.builds(MulticriteriaRequest, *zoo_fields))
def test_decode_inverts_encode_multicriteria(service, req):
    result = service.multicriteria(req)
    assert decode_multicriteria(_json(encode_multicriteria(result))) == result


@ANSWERS
@given(st.builds(MinTransfersRequest, *zoo_fields))
def test_decode_inverts_encode_min_transfers(service, req):
    result = service.min_transfers(req)
    assert decode_min_transfers(_json(encode_min_transfers(result))) == result


@ANSWERS
@given(via_requests)
def test_decode_inverts_encode_via(service, req):
    result = service.via(req)
    assert decode_via(_json(encode_via(result))) == result


def _points(profile) -> list[tuple[int, int]]:
    return [(int(dep), int(dur)) for dep, dur in profile.connection_points()]


def _assert_journey_equal(answer, result) -> None:
    assert (answer.source, answer.target) == (result.source, result.target)
    assert (answer.departure, answer.arrival) == (
        result.departure,
        result.arrival,
    )
    assert answer.reachable == result.reachable
    assert answer.legs == result.legs
    assert answer.stats == result.stats
    assert _points(answer.profile) == _points(result.profile)


def _assert_profile_equal(answer, result) -> None:
    assert answer.source == result.source
    assert answer.stats == result.stats
    assert sorted(answer.profiles) == [
        s for s in range(N) if s != result.source
    ]
    for station, profile in answer.profiles.items():
        assert _points(profile) == _points(result.profile(station))


@ANSWERS
@given(journey_requests)
def test_decode_inverts_encode_journey(service, req):
    result = service.journey(req)
    answer = decode_journey(_json(encode_journey(result)))
    _assert_journey_equal(answer, result)


@settings(ANSWERS, max_examples=5)
@given(stations)
def test_decode_inverts_encode_profile(service, source):
    result = service.profile(source)
    answer = decode_profile(_json(encode_profile(result, num_stations=N)))
    _assert_profile_equal(answer, result)


@settings(ANSWERS, max_examples=5)
@given(
    st.builds(
        BatchRequest,
        journeys=st.lists(journey_requests, max_size=3).map(tuple),
        profiles=st.lists(
            st.builds(ProfileRequest, stations), max_size=1
        ).map(tuple),
    )
)
def test_decode_inverts_encode_batch(service, req):
    response = service.batch(req)
    answer = decode_batch(_json(encode_batch(response, num_stations=N)))
    assert answer.stats == response.stats
    assert len(answer.journeys) == len(response.journeys)
    assert len(answer.profiles) == len(response.profiles)
    for got, want in zip(answer.journeys, response.journeys):
        _assert_journey_equal(got, want)
    for got, want in zip(answer.profiles, response.profiles):
        _assert_profile_equal(got, want)


# ---------------------------------------------------------------------------
# Malformed bodies
# ---------------------------------------------------------------------------

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=5)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
field_names = st.sampled_from(
    [
        "v",
        "source",
        "target",
        "via",
        "departure",
        "max_transfers",
        "num_threads",
        "targets",
        "journeys",
        "profiles",
    ]
) | st.text(max_size=8)


@st.composite
def mutated(draw, body):
    """``body`` with one or two random edits, possibly nested."""
    for _ in range(draw(st.integers(1, 2))):
        if not isinstance(body, dict) or draw(st.integers(0, 9)) == 0:
            return draw(json_values)
        body = dict(body)
        nested = [k for k, v in body.items() if isinstance(v, list) and v]
        if nested and draw(st.booleans()):
            key = draw(st.sampled_from(nested))
            items = list(body[key])
            i = draw(st.integers(0, len(items) - 1))
            items[i] = draw(mutated(items[i]))
            body[key] = items
            continue
        edit = draw(st.sampled_from(["drop", "set"]))
        if edit == "drop" and body:
            del body[draw(st.sampled_from(sorted(body)))]
        else:
            body[draw(field_names)] = draw(json_values)
    return body


MALFORMED = settings(max_examples=150, deadline=None)

ALL_SHAPES = dict(
    SHAPES,
    profile=(
        profile_requests,
        wire.profile_body,
        lambda body, n: parse_profile_request(body, n)[0],
    ),
)


@pytest.mark.parametrize("shape", sorted(ALL_SHAPES))
def test_mutated_bodies_raise_only_protocol_errors(shape):
    strategy, render, parse = ALL_SHAPES[shape]

    @MALFORMED
    @given(st.data())
    def check(data):
        body = data.draw(mutated(render(data.draw(strategy))))
        try:
            parse(body, N)
        except ProtocolError as exc:
            assert 400 <= exc.status < 500
            assert exc.payload()["error"]["code"]

    check()
