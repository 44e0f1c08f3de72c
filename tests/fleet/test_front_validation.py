"""Input the shared HTTP front rejects with a typed answer: a malformed
``Content-Length`` on the wire, and out-of-range constructor
arguments of the worker and the gateway."""

from __future__ import annotations

import json
import socket

import pytest

from repro.fleet import FleetGateway
from repro.server import DatasetRegistry, TransitServer

JOURNEY_BODY = b'{"source": 0, "target": 5}'


def raw_exchange(port: int, request: bytes) -> tuple[int, dict, dict]:
    """Send raw request bytes, read until the front closes; returns
    ``(status, lowercased headers, decoded JSON body)``."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    reply = b"".join(chunks)
    assert reply, "the front closed the connection without answering"
    head, _, body = reply.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, json.loads(body)


@pytest.mark.parametrize("declared", ["abc", "-5", "1.5", "+5", "0x10"])
def test_malformed_content_length_is_a_typed_400(front, declared):
    request = (
        f"POST /v1/oahu/journey HTTP/1.1\r\n"
        f"Host: localhost\r\n"
        f"Content-Length: {declared}\r\n"
        f"\r\n"
    ).encode("latin-1") + JOURNEY_BODY
    status, headers, payload = raw_exchange(front.port, request)
    assert status == 400
    assert headers["connection"] == "close"
    assert payload["v"] == 1
    assert payload["error"]["code"] == "invalid_request"
    assert declared in payload["error"]["message"]


def test_front_still_serves_after_a_malformed_length(front):
    raw_exchange(
        front.port,
        b"POST /v1/oahu/journey HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
    )
    request = (
        b"POST /v1/oahu/journey HTTP/1.1\r\n"
        b"Connection: close\r\n"
        b"Content-Length: %d\r\n\r\n" % len(JOURNEY_BODY)
    ) + JOURNEY_BODY
    status, _, payload = raw_exchange(front.port, request)
    assert status == 200 and payload["kind"] == "journey"


def make_server(**kwargs):
    return TransitServer(DatasetRegistry(), **kwargs)


def make_gateway(**kwargs):
    return FleetGateway({"w0": "http://127.0.0.1:9"}, **kwargs)


@pytest.mark.parametrize("make", [make_server, make_gateway])
@pytest.mark.parametrize(
    "kwargs",
    [{"max_inflight": 0}, {"retry_after": -0.5}, {"drain_grace": -1.0}],
)
def test_both_fronts_reject_the_shared_arguments(make, kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        make(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"health_interval": 0.0},
        {"health_interval": -0.25},
        {"health_timeout": 0.0},
        {"health_timeout": -2.0},
        {"worker_timeout": 0.0},
        {"worker_timeout": -30.0},
        {"eject_after": 0},
    ],
)
def test_gateway_rejects_non_positive_timing(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        make_gateway(**kwargs)
