"""What the service puts on the wire, send by send.

A submission leaves the client in one write, and the server sends every
group of events that is ready together in one write: a pure hit is one
send from the status line to the zero-length chunk.  Grouping must never
hold back a ready event — a miss still streams — and the wire format
stays one chunk per event.  Request bodies the server cannot delimit
exactly are refused, and the connection they came on is closed.

Sends are counted by a :class:`socket.socket` subclass that logs each
``send``/``sendall`` it makes: the server hands one to every handler,
and the client gets one through ``socket.create_connection``.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading

import pytest

from repro.service import (
    BenchmarkService,
    CampaignRequest,
    ServiceClient,
    ServiceHTTPServer,
)


def _request(**overrides):
    payload = {
        "graphs": ("urand",),
        "kernels": ("bfs", "cc"),
        "frameworks": ("gap",),
        "modes": ("baseline",),
        "scale": 6,
    }
    payload.update(overrides)
    return CampaignRequest(**payload)


class _LoggedSocket(socket.socket):
    """Takes over an open socket and logs the data of every send."""

    def __init__(self, sock: socket.socket, log: list[bytes]) -> None:
        timeout = sock.gettimeout()
        super().__init__(sock.family, sock.type, sock.proto, fileno=sock.detach())
        self.settimeout(timeout)
        self.log = log

    def send(self, data, *flags):
        self.log.append(bytes(data))
        return super().send(data, *flags)

    def sendall(self, data, *flags):
        self.log.append(bytes(data))
        return super().sendall(data, *flags)


class _LoggingServer(ServiceHTTPServer):
    """Every handler's socket logs its sends into ``self.sends``."""

    def __init__(self, address, service) -> None:
        super().__init__(address, service)
        self.sends: list[bytes] = []

    def get_request(self):
        sock, address = super().get_request()
        return _LoggedSocket(sock, self.sends), address


@pytest.fixture()
def service(tmp_path):
    svc = BenchmarkService(
        archive_dir=tmp_path / "archive", cache_dir=tmp_path / "graphs", jobs=1
    )
    yield svc
    svc.shutdown()


@pytest.fixture()
def server(service):
    srv = _LoggingServer(("127.0.0.1", 0), service)
    threading.Thread(target=srv.serve_forever, args=(0.01,), daemon=True).start()
    yield srv
    srv.shutdown()
    srv.server_close()


@pytest.fixture()
def client(server):
    with ServiceClient(*server.server_address[:2], timeout=60.0) as cli:
        yield cli


def _connect(server) -> socket.socket:
    return socket.create_connection(server.server_address[:2], timeout=10.0)


def _post_head(length: int | None = None, extra: bytes = b"") -> bytes:
    head = b"POST /submit HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
    if length is not None:
        head += b"Content-Length: %d\r\n" % length
    return head + extra + b"\r\n"


def _read_chunked(reader) -> tuple[bytes, list[bytes]]:
    """``(head, chunk payloads)`` of one chunked reply, off a raw stream."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        head += reader.readline()
    chunks = []
    while True:
        size = int(reader.readline(), 16)
        chunk = reader.read(size)
        assert reader.read(2) == b"\r\n"
        if not size:
            return head, chunks
        chunks.append(chunk)


class TestOneWriteEachWay:
    def test_a_pure_hit_is_one_send(self, client, server):
        client.submit_and_collect(_request())  # executes: what follows hits
        del server.sends[:]
        events = client.submit_and_collect(_request())
        assert [e["event"] for e in events] == ["accepted", "cell", "cell", "done"]
        assert len(server.sends) == 1
        assert server.sends[0].startswith(b"HTTP/1.1 200 ")
        assert server.sends[0].endswith(b"\r\n0\r\n\r\n")

    @pytest.mark.parametrize("route", ["healthz", "status"])
    def test_a_json_reply_is_one_send(self, client, server, route):
        client.healthz()  # the connection is open before counting starts
        del server.sends[:]
        payload = getattr(client, route)()
        assert len(server.sends) == 1
        head, _, body = server.sends[0].partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert json.loads(body) == payload

    def test_a_submission_leaves_the_client_in_one_send(self, server, monkeypatch):
        sends: list[bytes] = []
        connect = socket.create_connection
        monkeypatch.setattr(
            socket,
            "create_connection",
            lambda *args, **kwargs: _LoggedSocket(connect(*args, **kwargs), sends),
        )
        body = json.dumps(_request().as_dict()).encode()
        with ServiceClient(*server.server_address[:2], timeout=60.0) as client:
            for _ in range(3):  # a fresh connection, then a kept-alive one
                del sends[:]
                assert client.submit_and_collect(_request())[-1]["event"] == "done"
                assert len(sends) == 1
                head, _, sent_body = sends[0].partition(b"\r\n\r\n")
                assert head.startswith(b"POST /submit HTTP/1.1\r\n")
                assert sent_body == body


class TestWireFormat:
    def test_a_hit_reply_is_one_chunk_per_event(self, client, server):
        client.submit_and_collect(_request())  # executes: what follows hits
        body = json.dumps(_request().as_dict()).encode()
        with _connect(server) as sock:
            sock.sendall(_post_head(len(body)) + body)
            head, chunks = _read_chunked(sock.makefile("rb"))
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"Transfer-Encoding: chunked" in head
        assert all(chunk.index(b"\n") == len(chunk) - 1 for chunk in chunks)
        events = [json.loads(chunk) for chunk in chunks]
        assert [e["event"] for e in events] == ["accepted", "cell", "cell", "done"]
        assert events == client.submit_and_collect(_request())

    def test_a_miss_still_streams(self, client, server, service, monkeypatch):
        """Each ready group leaves before the stream waits: ``accepted``
        and the hit before the job runs, the measured cell before the
        job is archived (``done`` waits for the archive)."""
        client.submit_and_collect(_request(kernels=("bfs",)))
        started, committed = threading.Event(), threading.Event()
        execute, commit = service._execute, service._commit

        def held_execute(job):
            started.wait(60.0)
            execute(job)

        def held_commit(*args):
            committed.wait(60.0)
            return commit(*args)

        monkeypatch.setattr(service, "_execute", held_execute)
        monkeypatch.setattr(service, "_commit", held_commit)
        # A short timeout and no retry: an event held back fails the test.
        with ServiceClient(
            *server.server_address[:2], timeout=10.0, max_attempts=1
        ) as held:
            try:
                events = held.submit(_request(kernels=("bfs", "cc")))
                assert next(events)["event"] == "accepted"
                hit = next(events)
                assert hit["event"] == "cell" and hit["cached"]
                started.set()
                fresh = next(events)
                assert fresh["event"] == "cell" and not fresh["cached"]
                committed.set()
                done = next(events)
                assert done["event"] == "done" and done["executed"] == 1
            finally:
                started.set()
                committed.set()


class TestRequestFraming:
    """A body is consumed exactly, or refused and its connection closed."""

    def _exchange(self, server, data: bytes) -> tuple[int, dict[str, str], bytes]:
        """Send ``data`` and half-close; the one reply to it, read up to
        the server's close (which must come: nothing may follow it)."""
        with _connect(server) as sock:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            received = b""
            try:
                while chunk := sock.recv(65536):
                    received += chunk
            except ConnectionResetError:
                pass  # closed with the refused body unread: RST after the reply
        head, _, body = received.partition(b"\r\n\r\n")
        status, *lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines)
        assert len(body) == int(headers["Content-Length"])  # one reply only
        return int(status.split()[1]), headers, body

    @pytest.mark.parametrize(
        "framing, status",
        [
            pytest.param(b"Transfer-Encoding: chunked\r\n", 411, id="chunked"),
            pytest.param(b"Content-Length: -5\r\n", 400, id="negative"),
            pytest.param(b"Content-Length: five\r\n", 400, id="not-a-number"),
            pytest.param(b"Content-Length: 4096\r\n", 400, id="short"),
        ],
    )
    def test_a_body_not_read_exactly_is_refused_and_closed(
        self, server, service, framing, status
    ):
        body = json.dumps(_request().as_dict()).encode()
        data = _post_head(extra=framing) + b"%X\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        got, headers, reply = self._exchange(server, data)
        assert got == status
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        assert "error" in json.loads(reply)
        assert service.stats["submissions"] == 0

    def test_a_bad_body_read_exactly_keeps_the_connection(self, server):
        conn = http.client.HTTPConnection(*server.server_address[:2], timeout=10.0)
        try:
            conn.request("POST", "/submit", body=b"not json")
            refused = conn.getresponse()
            assert refused.status == 400
            assert "error" in json.loads(refused.read())
            assert not refused.will_close
            sock = conn.sock
            conn.request("GET", "/healthz")
            assert conn.getresponse().status == 200
            assert conn.sock is sock
        finally:
            conn.close()

    def test_expect_continue_is_answered_before_the_body(self, server):
        body = json.dumps(_request().as_dict()).encode()
        with _connect(server) as sock:
            reader = sock.makefile("rb")
            sock.sendall(_post_head(len(body), b"Expect: 100-continue\r\n"))
            assert reader.readline().startswith(b"HTTP/1.1 100 ")
            assert reader.readline() == b"\r\n"
            sock.sendall(body)
            head, chunks = _read_chunked(reader)
        assert head.startswith(b"HTTP/1.1 200 ")
        assert json.loads(chunks[-1])["event"] == "done"
