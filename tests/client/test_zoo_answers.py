"""The zoo shapes answer with the service layer's own result types.

``multicriteria``, ``via`` and ``min_transfers`` decode into
:class:`MulticriteriaResult`, :class:`ViaResult` and
:class:`MinTransfersResult` — the very classes the facade returns, so
a backend answer compares equal to the facade's.  The wire
``reachable`` is not stored: the decoder checks it against the decoded
fields and rejects a payload where they disagree.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.client
from repro.client import HttpBackend, TransportError
from repro.client.results import (
    decode_min_transfers,
    decode_multicriteria,
    decode_via,
)
from repro.server.protocol import (
    encode_min_transfers,
    encode_multicriteria,
    encode_via,
)
from repro.service import (
    MinTransfersRequest,
    MinTransfersResult,
    MulticriteriaRequest,
    MulticriteriaResult,
    ViaRequest,
    ViaResult,
)

from tests.client.fake_server import FakeServer

#: (facade method, request, encoder, decoder) per zoo shape; the
#: budget-0 multicriteria pair is unreachable on oahu/tiny.
ZOO = (
    (
        "multicriteria",
        MulticriteriaRequest(2, 5, 480),
        encode_multicriteria,
        decode_multicriteria,
    ),
    (
        "multicriteria",
        MulticriteriaRequest(2, 5, 480, max_transfers=0),
        encode_multicriteria,
        decode_multicriteria,
    ),
    ("via", ViaRequest(2, 5, 7, 480), encode_via, decode_via),
    (
        "min_transfers",
        MinTransfersRequest(2, 5, 480),
        encode_min_transfers,
        decode_min_transfers,
    ),
)


def test_client_exports_the_service_result_types():
    assert repro.client.MulticriteriaResult is MulticriteriaResult
    assert repro.client.ViaResult is ViaResult
    assert repro.client.MinTransfersResult is MinTransfersResult
    for gone in ("MulticriteriaAnswer", "ViaAnswer", "MinTransfersAnswer"):
        assert not hasattr(repro.client, gone)


def test_backend_answers_equal_the_facade_results(make_service, local_backend):
    """Equal but for the wall-clock timings of the two services."""
    service = make_service()
    for shape, request, _, _ in ZOO:
        answer = getattr(local_backend, shape)(request)
        result = getattr(service, shape)(request)
        assert type(answer) is type(result)
        untimed = {"simulated_seconds": 0.0, "total_seconds": 0.0}
        assert dataclasses.replace(
            answer, stats=dataclasses.replace(answer.stats, **untimed)
        ) == dataclasses.replace(
            result, stats=dataclasses.replace(result.stats, **untimed)
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            answer.legs = None


def test_contradicting_reachable_is_rejected(make_service):
    service = make_service()
    for shape, request, encode, decode in ZOO:
        payload = encode(getattr(service, shape)(request))
        assert decode(payload).reachable == payload["reachable"]
        payload["reachable"] = not payload["reachable"]
        with pytest.raises(TransportError) as excinfo:
            decode(payload)
        assert excinfo.value.code == "invalid_response"


def test_http_backend_rejects_contradicting_reachable(make_service):
    payload = encode_via(make_service().via(ViaRequest(2, 5, 7, 480)))
    payload["reachable"] = False
    server = FakeServer([("respond", 200, payload, {})])
    try:
        backend = HttpBackend(
            f"http://127.0.0.1:{server.port}", dataset="oahu", timeout=5.0
        )
        with pytest.raises(TransportError) as excinfo:
            backend.via(2, 5, 7, departure=480)
        assert excinfo.value.code == "invalid_response"
    finally:
        server.close()
