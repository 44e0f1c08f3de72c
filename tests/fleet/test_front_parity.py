"""The worker and the gateway share one HTTP front.

Every case here is answered by the front itself, not by a query
handler: an unknown route, a wrong method, an oversized body, a full
admission bound, a draining server, and the request counters of
``/metrics``.  Each test runs against a :class:`TransitServer` and a
:class:`FleetGateway` (the ``front`` fixture) and expects the same
status, error code and keys from both.
"""

from __future__ import annotations

import http.client
import json

from repro.server import MAX_BODY_BYTES

JOURNEY = ("POST", "/v1/oahu/journey", {"source": 0, "target": 5})
DELAYS = (
    "POST",
    "/v1/datasets/oahu/delays",
    {"delays": [{"train": 0, "minutes": 5}]},
)

#: Counters both fronts keep, with the same meaning and labels.
SHARED_KEYS = {
    "uptime_seconds",
    "requests_total",
    "responses_total",
    "rejected_total",
    "rejected_by_endpoint",
    "inflight",
    "latency",
}
SERVER_KEYS = SHARED_KEYS | {
    "v",
    "retries_observed_total",
    "micro_batching",
    "swaps_total",
    "last_swap_seconds",
    "datasets",
}
GATEWAY_KEYS = SHARED_KEYS | {
    "forwards_total",
    "failovers_total",
    "no_worker_total",
    "ejections_total",
    "readmissions_total",
    "catch_up_batches_total",
    "catch_up_coalesced_total",
    "swaps_total",
    "incremental_swaps_total",
    "last_swap_seconds",
    "last_swap_pause_seconds",
    "health_sweep_errors_total",
}
HISTOGRAM_KEYS = {
    "count",
    "sum_ms",
    "mean_ms",
    "p50_ms_le",
    "p99_ms_le",
    "overflow_count",
    "buckets_ms",
}


def call(front, method, path, body=None):
    """One request on a fresh connection: ``(status, lowercased
    headers, decoded JSON body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", front.port, timeout=30)
    try:
        data = None if body is None else json.dumps(body)
        conn.request(method, path, body=data)
        response = conn.getresponse()
        payload = json.loads(response.read())
        headers = {k.lower(): v for k, v in response.headers.items()}
        return response.status, headers, payload
    finally:
        conn.close()


def own_counters(front, metrics: dict) -> dict:
    """The front's own section of its ``/metrics`` document."""
    return metrics["gateway"] if "gateway" in metrics else metrics


def expected_retry_after(front) -> str:
    return f"{front.retry_after:g}"


def test_unknown_route_is_404(front):
    for method, path in (("GET", "/v2/oahu/journey"), ("POST", "/nope")):
        status, _, payload = call(front, method, path, {})
        assert status == 404
        assert payload["v"] == 1
        assert payload["error"]["code"] == "unknown_route"


def test_wrong_method_is_405(front):
    for method, path in (
        ("POST", "/healthz"),
        ("POST", "/metrics"),
        ("POST", "/v1/datasets"),
        ("GET", "/v1/datasets/oahu/delays"),
        ("GET", "/v1/oahu/journey"),
    ):
        status, _, payload = call(front, method, path)
        assert status == 405, (method, path)
        assert payload["error"]["code"] == "method_not_allowed"


def test_oversized_body_is_413(front):
    conn = http.client.HTTPConnection("127.0.0.1", front.port, timeout=30)
    try:
        conn.putrequest("POST", "/v1/oahu/journey")
        conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
        conn.endheaders()
        conn.send(b"x" * 1024)
        response = conn.getresponse()
        payload = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == 413
    assert payload["error"]["code"] == "payload_too_large"
    assert response.headers["Connection"] == "close"


def test_overload_is_a_retriable_503(front):
    front._inflight = front.max_inflight
    try:
        for request in (JOURNEY, DELAYS):
            status, headers, payload = call(front, *request)
            assert status == 503, request
            assert payload["error"]["code"] == "overloaded"
            assert payload["error"]["retriable"] is True
            assert headers["retry-after"] == expected_retry_after(front)
        # Introspection is always admitted.
        assert call(front, "GET", "/healthz")[0] == 200
        assert call(front, "GET", "/metrics")[0] == 200
    finally:
        front._inflight = 0


def test_draining_is_a_retriable_503(front):
    front._draining = True
    try:
        for request in (JOURNEY, DELAYS):
            status, headers, payload = call(front, *request)
            assert status == 503, request
            assert payload["error"]["code"] == "draining"
            assert payload["error"]["retriable"] is True
            assert headers["retry-after"] == expected_retry_after(front)
        status, _, health = call(front, "GET", "/healthz")
        assert status == 200 and health["status"] == "draining"
    finally:
        front._draining = False


def test_request_metrics_share_keys_and_labels(front):
    assert call(front, *JOURNEY)[0] == 200
    call(front, "GET", "/v2/oahu/journey")
    call(front, "POST", "/healthz", {})
    front._inflight = front.max_inflight
    try:
        call(front, *JOURNEY)
    finally:
        front._inflight = 0
    status, _, metrics = call(front, "GET", "/metrics")
    assert status == 200
    own = own_counters(front, metrics)
    if own is metrics:
        assert set(own) == SERVER_KEYS
    else:
        assert set(metrics) == {"v", "gateway", "workers", "fleet"}
        assert set(own) == GATEWAY_KEYS
    journey = "POST /v1/{name}/journey"
    assert own["requests_total"][journey] >= 2
    assert own["responses_total"][journey]["200"] >= 1
    assert own["responses_total"][journey]["503"] >= 1
    assert own["responses_total"]["GET <unmatched>"]["404"] >= 1
    assert own["responses_total"]["POST /healthz"]["405"] >= 1
    assert own["rejected_by_endpoint"][journey] >= 1
    assert own["rejected_total"] >= 1
    assert set(own["latency"][journey]) == HISTOGRAM_KEYS
