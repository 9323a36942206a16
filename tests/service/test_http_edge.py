"""Malformed input at the HTTP edge: typed errors, never a wedged server.

Every case is followed by a normal ``POST /diagnose`` on a fresh
connection, which must still succeed — a bad request may cost its own
connection, never the dispatcher or the listener.
"""

import http.client
import json
import socket

import pytest

from repro.service.client import ServiceClient
from repro.service.server import MAX_BODY_BYTES

from .conftest import SMALL

BODY = json.dumps(dict(SMALL, fault_index=0)).encode()


def raw_exchange(port, data, shutdown_write=False):
    """Send raw bytes and read until the server closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        if shutdown_write:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def request_head(content_length):
    return (f"POST /diagnose HTTP/1.1\r\nHost: t\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n\r\n").encode("latin-1")


def assert_still_serving(port):
    with ServiceClient(port=port, timeout_s=30) as client:
        assert client.diagnose(dict(SMALL, fault_index=1)).candidate_cells


@pytest.fixture
def port(live_server):
    _, port = live_server()
    with ServiceClient(port=port) as client:
        client.wait_ready()
    return port


class TestContentLength:
    @pytest.mark.parametrize("value", [
        "twelve", "12abc", "-1", "+5", "1_0", MAX_BODY_BYTES + 1,
    ])
    def test_bad_content_length_is_400_malformed_payload(self, port, value):
        response = raw_exchange(port, request_head(value))
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), response[:200]
        assert b"Connection: close" in head
        assert json.loads(body)["error"]["code"] == "malformed_payload"
        assert_still_serving(port)


class TestTraceparent:
    @pytest.mark.parametrize("header", [
        "garbage",
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",   # all-zero trace id
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",   # all-zero span id
        "ff-" + "a" * 32 + "-" + "b" * 16 + "-01",   # forbidden version
        "00-" + "g" * 32 + "-" + "b" * 16 + "-01",   # canonical shape, not hex
        "00-" + "a" * 31 + "-" + "b" * 16 + "-01",   # short trace id
    ])
    def test_malformed_traceparent_gets_a_fresh_trace_id(self, port, header):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("POST", "/diagnose", body=BODY,
                         headers={"Content-Type": "application/json",
                                  "traceparent": header})
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 200, payload
        trace_id = payload["trace_id"]
        assert len(trace_id) == 32 and int(trace_id, 16) != 0
        assert trace_id not in header
        assert_still_serving(port)


class TestTruncatedBody:
    def test_body_cut_short_before_eof_closes_the_connection(self, port):
        data = request_head(len(BODY)) + BODY[: len(BODY) // 2]
        assert raw_exchange(port, data, shutdown_write=True) == b""
        assert_still_serving(port)

    def test_headers_cut_short_before_eof_get_400(self, port):
        data = b"POST /diagnose HTTP/1.1\r\nHost: t\r\n"
        response = raw_exchange(port, data, shutdown_write=True)
        assert response.startswith(b"HTTP/1.1 400 "), response[:200]
        assert_still_serving(port)
