"""How the server reads a request, byte by byte.

No pool and no kernel: a raw socket sends scripted bytes to an
in-process server and reads back exactly what it answers.  Every refusal
is one JSON reply marked ``Connection: close``, and then the connection
closes; whatever followed the refused head on the socket is never read
as a request of its own.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.service import BenchmarkService, ServiceHTTPServer
from repro.service.protocol import MAX_HEADERS, MAX_LINE


@pytest.fixture()
def server(tmp_path):
    service = BenchmarkService(archive_dir=tmp_path / "archive", jobs=1)
    srv = ServiceHTTPServer(("127.0.0.1", 0), service)
    threading.Thread(target=srv.serve_forever, args=(0.01,), daemon=True).start()
    yield srv
    srv.shutdown()
    srv.server_close()
    service.shutdown()


def _connect(server) -> socket.socket:
    return socket.create_connection(server.server_address[:2], timeout=10.0)


def _reply(reader) -> tuple[int, dict[str, str], bytes] | None:
    """``(status, headers, body)`` of the next reply, or None once the
    server has closed the connection."""
    try:
        line = reader.readline()
    except ConnectionResetError:
        return None  # closed with bytes of ours unread: RST after the reply
    if not line:
        return None
    headers = {}
    while (field := reader.readline()) != b"\r\n":
        assert field, "the reply head ended with the connection"
        name, _, value = field.decode("latin-1").partition(":")
        headers[name.lower()] = value.strip()
    body = reader.read(int(headers["content-length"]))
    return int(line.split()[1]), headers, body


def _replies(sock: socket.socket) -> list[tuple[int, dict[str, str], bytes]]:
    """Every reply on the connection, up to the server's close (which must
    come within the socket's timeout)."""
    reader = sock.makefile("rb")
    replies = []
    while (reply := _reply(reader)) is not None:
        replies.append(reply)
    return replies


def _exchange(server, data: bytes) -> list[tuple[int, dict[str, str], bytes]]:
    """Send ``data`` in one write, leave the connection open, and read
    every reply until the server closes it."""
    with _connect(server) as sock:
        sock.sendall(data)
        return _replies(sock)


_STATUS = b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n"


@pytest.mark.parametrize(
    "data, status",
    [
        pytest.param(b"GARBAGE\r\n\r\n", 400, id="malformed-request-line"),
        pytest.param(b"GET /status HTTP/2.0\r\nHost: x\r\n\r\n", 505, id="http-2"),
        pytest.param(
            b"GET /" + b"x" * MAX_LINE + b" HTTP/1.1\r\n\r\n", 414, id="long-request-line"
        ),
        pytest.param(
            b"GET /status HTTP/1.1\r\nX-Pad: " + b"x" * MAX_LINE + b"\r\n\r\n",
            431,
            id="long-header-line",
        ),
        pytest.param(
            b"GET /status HTTP/1.1\r\n" + b"X-Pad: x\r\n" * (MAX_HEADERS + 1) + b"\r\n",
            431,
            id="many-header-lines",
        ),
        pytest.param(b"DELETE /status HTTP/1.1\r\nHost: x\r\n\r\n", 501, id="method"),
        pytest.param(
            b"POST /submit HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            411,
            id="transfer-encoding",
        ),
        pytest.param(
            b"POST /submit HTTP/1.1\r\nContent-Length: 100000000000\r\n\r\n{}",
            413,
            id="huge-body",
        ),
        pytest.param(
            b"POST /submit HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n{}",
            413,
            id="length-of-5000-digits",
        ),
        # Read by the first value, the body would end after ``{}`` and the
        # rest of it be served as a request of its own.
        pytest.param(
            b"POST /nowhere HTTP/1.1\r\nContent-Length: 2\r\n"
            b"Content-Length: %d\r\n\r\n{}%s" % (2 + len(_STATUS), _STATUS),
            400,
            id="conflicting-content-length",
        ),
    ],
)
def test_a_refusal_is_one_json_reply_then_the_connection_closes(server, data, status):
    # Then any request smuggled after the refused head would be answered too.
    (reply,) = _exchange(server, data + _STATUS)
    got, headers, body = reply
    assert got == status
    assert headers["content-type"] == "application/json"
    assert headers["connection"] == "close"
    assert "error" in json.loads(body)


def test_repeated_equal_content_lengths_are_one(server):
    data = b"POST /nowhere HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}"
    replies = _exchange(server, data + b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert [status for status, _, _ in replies] == [404, 200]


def test_lower_case_header_names_are_read(server):
    data = (
        b"POST /nowhere HTTP/1.1\r\nhost: x\r\ncontent-length: 2\r\n\r\n{}"
        b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n"
    )
    replies = _exchange(server, data)
    assert [status for status, _, _ in replies] == [404, 200]
    assert "connection" not in replies[0][1]
    assert replies[1][1]["connection"] == "close"


@pytest.mark.parametrize(
    "request_head",
    [
        pytest.param(b"GET /healthz HTTP/1.0\r\n\r\n", id="http-1.0"),
        pytest.param(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", id="close"),
    ],
)
def test_the_connection_closes_after_the_reply(server, request_head):
    replies = _exchange(server, request_head + b"GET /healthz HTTP/1.1\r\n\r\n")
    assert [(status, json.loads(body)) for status, _, body in replies] == [
        (200, {"ok": True})
    ]


def test_pipelined_requests_are_answered_in_order_on_one_connection(server):
    with _connect(server) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\nGET /nowhere HTTP/1.1\r\n\r\n")
        first, second = _reply(reader), _reply(reader)
        sock.sendall(b"GET /status HTTP/1.1\r\n\r\n")
        third = _reply(reader)
    assert [reply[0] for reply in (first, second, third)] == [200, 404, 200]
    assert json.loads(second[2]) == {"error": "unknown path /nowhere"}
    assert "connections_reset" in json.loads(third[2])
    for _, headers, _ in (first, second, third):
        assert headers["server"] == "repro-service"
        assert headers["date"].endswith(" GMT")
        assert "connection" not in headers


def test_expect_continue_is_answered_before_the_body_is_read(server):
    with _connect(server) as sock:
        reader = sock.makefile("rb")
        sock.sendall(
            b"POST /nowhere HTTP/1.1\r\nContent-Length: 2\r\n"
            b"Expect: 100-continue\r\n\r\n"
        )
        assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert reader.readline() == b"\r\n"
        sock.sendall(b"{}")
        assert _reply(reader)[0] == 404
