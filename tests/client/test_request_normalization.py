"""One normalizer for the two call forms of every shape.

The facade and both backends accept a typed request or raw arguments
(:func:`repro.service.model.as_request`).  Raw arguments next to a
typed request are an error, not silently dropped; a typed request
passes through as the very same object.
"""

from __future__ import annotations

import pytest

from repro.service import (
    DEFAULT_MAX_TRANSFERS,
    BatchRequest,
    JourneyRequest,
    MinTransfersRequest,
    MulticriteriaRequest,
    ProfileRequest,
    ViaRequest,
    as_request,
)

#: ``(method, typed request, raw keyword arguments that must not ride
#: along with it)`` for every shape that takes raw keywords.
MIXED = (
    ("journey", JourneyRequest(1, 2), {"departure": 480}),
    ("journey", JourneyRequest(1, 2), {"target": 3}),
    ("multicriteria", MulticriteriaRequest(2, 5, 480), {"max_transfers": 1}),
    ("multicriteria", MulticriteriaRequest(2, 5, 480), {"departure": 500}),
    ("via", ViaRequest(2, 5, 7, 480), {"departure": 500}),
    ("via", ViaRequest(2, 5, 7, 480), {"via": 3}),
    ("min_transfers", MinTransfersRequest(2, 5, 480), {"max_transfers": 0}),
)


class TestAsRequest:
    def test_typed_request_is_returned_as_is(self):
        for request in (
            ProfileRequest(3),
            JourneyRequest(1, 2, 480),
            BatchRequest.from_pairs([(1, 2)]),
            MulticriteriaRequest(2, 5, 480),
            ViaRequest(2, 5, 7, 480),
            MinTransfersRequest(2, 5, 480, 1),
        ):
            assert as_request(type(request), request) is request

    def test_raw_arguments_fill_the_dataclass(self):
        assert as_request(ProfileRequest, 3) == ProfileRequest(3)
        assert as_request(JourneyRequest, 1, target=2) == JourneyRequest(1, 2)
        assert as_request(
            JourneyRequest, 1, target=2, departure=480
        ) == JourneyRequest(1, 2, 480)
        assert as_request(
            MulticriteriaRequest, 2, target=5, departure=480, max_transfers=None
        ) == MulticriteriaRequest(2, 5, 480, DEFAULT_MAX_TRANSFERS)
        assert as_request(
            MinTransfersRequest, 2, target=5, departure=480, max_transfers=0
        ) == MinTransfersRequest(2, 5, 480, 0)
        assert as_request(
            ViaRequest, 2, via=5, target=7, departure=480
        ) == ViaRequest(2, 5, 7, 480)
        assert as_request(BatchRequest, [(1, 2), (3, 4)]) == BatchRequest(
            journeys=(JourneyRequest(1, 2), JourneyRequest(3, 4))
        )

    def test_missing_required_raw_argument(self):
        with pytest.raises(TypeError, match="target"):
            as_request(JourneyRequest, 1)
        with pytest.raises(TypeError, match="departure"):
            as_request(MulticriteriaRequest, 1, target=2)
        with pytest.raises(TypeError, match="via, target"):
            as_request(ViaRequest, 1, departure=480)

    @pytest.mark.parametrize("shape, request_, raw", MIXED)
    def test_raw_arguments_next_to_typed_request(self, shape, request_, raw):
        with pytest.raises(TypeError, match="pass one or the other"):
            as_request(type(request_), request_, **raw)


class TestEveryEntryPointRejectsMixedForms:
    """The bug this guards: ``journey(JourneyRequest(1, 2),
    departure=480)`` used to answer as if no departure was given."""

    def test_raw_form_still_answers(self, make_service, local_backend):
        facade = make_service()
        assert facade.journey(1, 2, departure=480).arrival == 537
        assert local_backend.journey(1, 2, departure=480).arrival == 537

    def test_facade(self, make_service):
        service = make_service()
        for shape, request, raw in MIXED:
            with pytest.raises(TypeError):
                getattr(service, shape)(request, **raw)

    def test_local_backend(self, local_backend):
        for shape, request, raw in MIXED:
            with pytest.raises(TypeError):
                getattr(local_backend, shape)(request, **raw)

    def test_http_backend(self, http_backend):
        for shape, request, raw in MIXED:
            with pytest.raises(TypeError):
                getattr(http_backend, shape)(request, **raw)
        assert http_backend.stats.requests == 0

    def test_positional_target_next_to_typed_journey(
        self, make_service, local_backend, http_backend
    ):
        for entry in (make_service(), local_backend, http_backend):
            with pytest.raises(TypeError):
                entry.journey(JourneyRequest(1, 2), 3)
