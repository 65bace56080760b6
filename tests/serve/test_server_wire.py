"""Wire-level server behaviour: one write per response, Nagle off, and
POST body framing (checked with raw sockets where clients would hide it).
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import time

import pytest

from repro.obs.metrics import EXPOSITION_CONTENT_TYPE
from repro.serve.server import MAX_BODY_BYTES, WarehouseRequestHandler


class _RecordingSocket:
    """An accepted socket that records each ``sendall`` (the call behind
    every handler ``wfile.write``) before forwarding it."""

    def __init__(self, sock: socket.socket, sends: list[bytes]) -> None:
        self._sock = sock
        self._sends = sends

    def sendall(self, data, *args):
        self._sends.append(bytes(data))
        return self._sock.sendall(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture()
def recording_server(running_server, monkeypatch):
    """``(base, engine, sends, nodelay)``: the running server with every
    accepted socket's sends recorded, plus each socket's TCP_NODELAY."""
    sends: list[bytes] = []
    nodelay: list[int] = []
    setup = WarehouseRequestHandler.setup

    def recording_setup(handler) -> None:
        handler.request = _RecordingSocket(handler.request, sends)
        setup(handler)
        nodelay.append(
            handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
        )

    monkeypatch.setattr(WarehouseRequestHandler, "setup", recording_setup)
    base, engine = running_server
    yield base, engine, sends, nodelay


def _address(base: str) -> tuple[str, int]:
    host, port = base.removeprefix("http://").rsplit(":", 1)
    return host, int(port)


def _parse_response(data: bytes) -> tuple[int, dict, bytes, bytes]:
    """``(status, headers, body, trailing bytes)`` of the response that
    starts ``data``; header names are lower-cased."""
    head, separator, rest = data.partition(b"\r\n\r\n")
    assert separator, f"no complete response in {data!r}"
    status_line, *lines = head.decode("latin-1").split("\r\n")
    version, status, _reason = status_line.split(" ", 2)
    assert version == "HTTP/1.1"
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers["content-length"])
    return int(status), headers, rest[:length], rest[length:]


def _single_write(sends: list[bytes], status: int) -> tuple[dict, bytes]:
    """Assert ``sends`` is one write holding one whole response with
    ``status``; return its headers and body."""
    assert len(sends) == 1, [len(chunk) for chunk in sends]
    got_status, headers, body, trailing = _parse_response(sends[0])
    assert got_status == status
    assert trailing == b""
    return headers, body


class TestOneWritePerResponse:
    @pytest.mark.parametrize(
        ("path", "status", "content_type"),
        [
            ("/query?alpha=0.2", 200, "application/json"),
            ("/metrics", 200, EXPOSITION_CONTENT_TYPE),
            ("/query?alpha=abc", 400, "application/json"),
            ("/nope", 404, "application/json"),
        ],
        ids=["json", "metrics", "400", "404"],
    )
    def test_get_response_is_one_write(
        self, recording_server, path, status, content_type
    ):
        base, _engine, sends, _nodelay = recording_server
        connection = http.client.HTTPConnection(*_address(base), timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        assert response.status == status
        headers, written = _single_write(sends, status)
        assert written == body
        assert headers["content-type"] == content_type
        if status != 200:
            assert set(json.loads(body)) == {"error", "code", "type"}

    def test_500_response_is_one_write(self, recording_server):
        base, engine, sends, _nodelay = recording_server
        original = engine.query
        engine.query = lambda *a, **k: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        connection = http.client.HTTPConnection(*_address(base), timeout=10)
        try:
            connection.request("GET", "/query?alpha=0.1")
            body = connection.getresponse().read()
        finally:
            connection.close()
            engine.query = original
        _headers, written = _single_write(sends, 500)
        assert written == body
        assert json.loads(body)["code"] == "internal_error"

    def test_keepalive_responses_are_one_write_each(self, recording_server):
        """Each response on a reused connection is its own single write,
        POST included."""
        base, _engine, sends, _nodelay = recording_server
        connection = http.client.HTTPConnection(*_address(base), timeout=10)
        try:
            for method, path, payload in (
                ("GET", "/healthz", None),
                ("POST", "/query", {"queries": [{"alpha": 0.0}]}),
                ("GET", "/stats", None),
            ):
                sends.clear()
                connection.request(
                    method,
                    path,
                    body=None if payload is None else json.dumps(payload),
                )
                response = connection.getresponse()
                body = response.read()
                assert response.status == 200
                headers, written = _single_write(sends, 200)
                assert written == body
                assert "connection" not in headers
        finally:
            connection.close()

    def test_accepted_socket_has_nagle_off(self, recording_server):
        base, _engine, _sends, nodelay = recording_server
        connection = http.client.HTTPConnection(*_address(base), timeout=10)
        try:
            connection.request("GET", "/healthz")
            connection.getresponse().read()
        finally:
            connection.close()
        assert len(nodelay) == 1
        assert nodelay[0] != 0

    def test_keepalive_latency_beats_delayed_ack(self, running_server):
        """Linux holds a delayed ACK for at least 40 ms, and a response
        whose body waits for one takes that long; a loopback /healthz
        answered at once takes about a millisecond."""
        base, _engine = running_server
        connection = http.client.HTTPConnection(*_address(base), timeout=10)
        timings = []
        try:
            for _ in range(30):
                start = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                timings.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(timings) < 0.020, timings


def _raw_exchange(base: str, request: bytes) -> bytes:
    """Send ``request`` on a fresh connection and read until the server
    closes it; fails if it neither answers nor closes within 5 s."""
    received = b""
    with socket.create_connection(_address(base), timeout=5) as sock:
        sock.sendall(request)
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionResetError:
            pass  # closed with our unread body still queued: a reset
        except socket.timeout:
            pytest.fail(f"no close within 5 s; received {received!r}")
    return received


def _post(headers: str, body: bytes) -> bytes:
    return (
        b"POST /query HTTP/1.1\r\nHost: test\r\n"
        + headers.encode("latin-1")
        + b"\r\n"
        + body
    )


_BATCH = b'{"queries": []}'
#: The next request a client might pipeline behind the body.
_SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"


class TestPostFraming:
    @pytest.mark.parametrize(
        ("headers", "body", "status", "error_type"),
        [
            pytest.param(
                "Content-Length: -1\r\n", _BATCH + _SMUGGLED,
                400, "BadRequestError", id="negative",
            ),
            pytest.param(
                "Content-Length: abc\r\n", _BATCH + _SMUGGLED,
                400, "BadRequestError", id="non-integer",
            ),
            pytest.param(
                "Content-Length: 15\r\nContent-Length: 20\r\n",
                _BATCH + _SMUGGLED, 400, "BadRequestError",
                id="conflicting",
            ),
            pytest.param(
                "Transfer-Encoding: chunked\r\n",
                b"f\r\n" + _BATCH + b"\r\n0\r\n\r\n" + _SMUGGLED,
                400, "BadRequestError", id="chunked",
            ),
            pytest.param(
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n", b"x" * 4096,
                413, "PayloadTooLargeError", id="over-cap",
            ),
            pytest.param(
                # Past int()'s 4300-digit string conversion limit.
                f"Content-Length: {'9' * 5000}\r\n", _BATCH,
                413, "PayloadTooLargeError", id="huge-numeral",
            ),
        ],
    )
    def test_unframed_body_is_refused_and_closes(
        self, running_server, headers, body, status, error_type
    ):
        base, _engine = running_server
        data = _raw_exchange(base, _post(headers, body))
        got_status, got_headers, payload, trailing = _parse_response(data)
        assert got_status == status
        assert got_headers["connection"] == "close"
        error = json.loads(payload)
        assert error["type"] == error_type
        assert error["code"] == {
            400: "bad_request", 413: "payload_too_large"
        }[status]
        # The unread body was not parsed as a second request.
        assert trailing == b""
        # The server still serves a fresh connection.
        status_after, _headers, payload, _trailing = _parse_response(
            _raw_exchange(
                base,
                b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                b"Connection: close\r\n\r\n",
            )
        )
        assert status_after == 200
        assert json.loads(payload)["status"] == "ok"

    def test_body_at_the_cap_is_served(self, running_server):
        base, _engine = running_server
        prefix = b'{"queries": [], "pad": "'
        suffix = b'"}'
        body = prefix + b"x" * (MAX_BODY_BYTES - len(prefix) - len(suffix))
        body += suffix
        assert len(body) == MAX_BODY_BYTES
        connection = http.client.HTTPConnection(*_address(base), timeout=10)
        try:
            connection.request("POST", "/query", body=body)
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == {"answers": []}
            # Fully read, so the connection stays open for the next one.
            connection.request("GET", "/healthz")
            assert connection.getresponse().status == 200
        finally:
            connection.close()
