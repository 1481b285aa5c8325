"""How the client reads a reply, byte by byte.

No engine and no pool: a raw-socket peer answers each request with
scripted bytes, so each framing case — a ``Content-Length`` body, a
chunked one with extensions and a trailer, ``Connection: close``, a
reply torn part-way, a head over the limits — is exactly the bytes the
client sees.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading

import pytest

from repro.errors import ServiceError
from repro.service import ServiceClient

_EVENTS = [
    {"event": "accepted", "cells": 2},
    {"event": "cell", "digest": "a"},
    {"event": "cell", "digest": "b"},
    {"event": "done", "hits": 2, "executed": 0},
]


def _json_reply(payload: dict, extra: bytes = b"") -> bytes:
    body = json.dumps(payload).encode()
    return (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n%s"
        b"Content-Length: %d\r\n\r\n%s" % (extra, len(body), body)
    )


def _chunked_reply(ext: bytes = b"", trailer: bytes = b"") -> bytes:
    lines = [json.dumps(event).encode() + b"\n" for event in _EVENTS]
    return (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
        + b"".join(b"%X%s\r\n%s\r\n" % (len(line), ext, line) for line in lines)
        + b"0\r\n" + trailer + b"\r\n"
    )


def _read_request(reader) -> bytes:
    """One request off a raw stream (request line and body), or b""."""
    request_line = reader.readline()
    length = 0
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
    return request_line and request_line + reader.read(length)


class _ScriptedPeer:
    """Answers the n-th request it reads with ``replies[n]`` (the last one
    repeats), on whichever connection it came; with ``hangup`` it closes
    the connection after each reply, else it keeps reading."""

    def __init__(self, replies: list[bytes], hangup: bool = False) -> None:
        self.replies = replies
        self.hangup = hangup
        self.connections = 0
        self.requests: list[bytes] = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        threading.Thread(target=self._accept, daemon=True).start()

    @property
    def address(self) -> tuple[str, int]:
        return self.listener.getsockname()[:2]

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return  # closed
            self.connections += 1
            threading.Thread(target=self._answer, args=(conn,), daemon=True).start()

    def _answer(self, conn: socket.socket) -> None:
        with conn, conn.makefile("rb") as reader, contextlib.suppress(OSError):
            while request := _read_request(reader):
                self.requests.append(request)
                conn.sendall(self.replies[min(len(self.requests), len(self.replies)) - 1])
                if self.hangup:
                    return


@pytest.fixture()
def peer_of():
    peers: list[_ScriptedPeer] = []

    def start(replies: list[bytes], hangup: bool = False) -> _ScriptedPeer:
        peers.append(_ScriptedPeer(replies, hangup))
        return peers[-1]

    yield start
    for peer in peers:
        peer.listener.close()


def _client(peer: _ScriptedPeer, **kwargs) -> ServiceClient:
    kwargs.setdefault("timeout", 5.0)  # a client that waits fails, not hangs
    return ServiceClient(*peer.address, **kwargs)


def test_a_content_length_reply_is_read_by_its_length(peer_of):
    peer = peer_of([_json_reply({"ok": True}), _json_reply({"submissions": 7})])
    with _client(peer) as client:
        assert client.healthz() == {"ok": True}
        assert client.status() == {"submissions": 7}
    assert peer.requests[0].startswith(b"GET /healthz HTTP/1.1\r\n")
    assert peer.connections == 1


def test_a_chunked_reply_skips_extensions_and_the_trailer(peer_of):
    peer = peer_of([_chunked_reply(ext=b";name=value", trailer=b"X-Checksum: 0\r\n")])
    with _client(peer) as client:
        for _ in range(2):
            assert client.submit_and_collect({"graphs": "urand"}) == _EVENTS
    assert peer.requests[0].startswith(b"POST /submit HTTP/1.1\r\n")
    assert peer.requests[0].endswith(b'\r\n{"graphs": "urand"}')
    assert peer.connections == 1  # the trailer was read: the socket was idle


def test_after_connection_close_the_next_request_opens_a_new_connection(peer_of):
    # The peer keeps the first connection open: only the client's reading
    # of ``Connection: close`` sends the next request elsewhere.
    peer = peer_of([_json_reply({"error": "x"}, b"Connection: close\r\n"),
                    _json_reply({"ok": True})])
    with _client(peer) as client:
        assert client.status() == {"error": "x"}
        assert client.healthz() == {"ok": True}
    assert peer.connections == 2


@pytest.mark.parametrize(
    "torn",
    [
        pytest.param(b"HTTP/1.1 20", id="status-line"),
        pytest.param(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chu", id="head"),
        pytest.param(_chunked_reply()[:-40], id="chunk"),
    ],
)
def test_a_torn_reply_is_retried_then_refused(peer_of, torn):
    peer = peer_of([torn], hangup=True)
    with _client(peer, max_attempts=3, backoff=0.001) as client:
        with pytest.raises(ServiceError, match="failed after 3 attempts: reply torn"):
            client.submit_and_collect({"graphs": "urand"})
    assert len(peer.requests) == 3
    assert peer.connections == 3


@pytest.mark.parametrize(
    "head, refusal",
    [
        pytest.param(
            b"HTTP/1.1 200 OK\r\nX-Pad: " + b"x" * 200_000,
            "line over 65536 bytes",
            id="long-line",
        ),
        pytest.param(
            b"HTTP/1.1 200 OK\r\n" + b"X-Pad: x\r\n" * 200,
            "more than 100 header lines",
            id="many-lines",
        ),
    ],
)
def test_a_head_over_the_limits_is_refused_not_read_on(peer_of, head, refusal):
    # The peer keeps the connection open: a reader without limits would
    # wait for the rest until its timeout.
    peer = peer_of([head])
    with _client(peer) as client:
        with pytest.raises(ServiceError, match=refusal):
            client.status()
