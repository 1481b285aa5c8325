"""Streaming client for the benchmark service.

Standard library only, and it speaks the little HTTP/1.1 it needs
itself: the service's server sends every reply with either a
``Content-Length`` body or a chunked one, and marks ``Connection:
close`` only on a refusal, so that is what the client parses — and
nothing more, with the line and field reader the server reads requests
with (:func:`~repro.service.protocol.read_fields`).  One
:class:`ServiceClient` holds one
persistent connection — the benchmark drives dozens of these
concurrently to model a fleet of submitters — with one buffered reader
on it, and decodes the server's chunked NDJSON stream one chunk (one
event) at a time, so callers see each cell event the moment the server
flushes it.  A request leaves in one write, head and body together.  The
connection only *stays* persistent because every reply is read to its
last chunk before the next request is written.

Submissions are *idempotent* on the server (every cell is memoized, and
identical in-flight cells coalesce), which makes client-side retry safe:
on a connection reset or a mid-stream disconnect (a crashed or restarted
server), :meth:`ServiceClient.submit` reopens the connection and
resubmits after a jittered exponential backoff.  Cells already streamed
are deduplicated by digest across attempts, so the caller sees every
cell exactly once no matter how many times the transport failed under
it — a fleet worker survives a server SIGKILL instead of failing the
whole campaign.
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Iterator, NamedTuple

from ..errors import ServiceError
from .protocol import CampaignRequest, read_fields, read_line

__all__ = ["ServiceClient"]

#: Terminal event kinds: a stream that ended without one was torn.
_TERMINAL_EVENTS = ("done", "error", "degraded")


class _Reply(NamedTuple):
    """What the head of a reply says about its body."""

    status: int
    length: int | None  # None: the body is chunked
    close: bool  # the server closes the connection after this reply


class ServiceClient:
    """Persistent-connection client for one service endpoint; every
    route is one exchange over its own socket and buffered reader."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8585,
        timeout: float = 300.0,
        max_attempts: int = 4,
        backoff: float = 0.25,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Submission attempts before giving up (1 = no retry).
        self.max_attempts = max(1, int(max_attempts))
        #: Base delay of the jittered exponential backoff between attempts.
        self.backoff = float(backoff)
        self._sock: socket.socket | None = None
        self._reader = None  # the buffered reader on ``_sock``
        #: A request went out whose reply is not yet read to its end: the
        #: socket cannot carry another request.
        self._reading = False

    # -- the exchange ----------------------------------------------------

    def _connect(self) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        # Mirror the server: without TCP_NODELAY, Nagle holds each small
        # request/event segment for the delayed-ACK timer.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._reader = sock, sock.makefile("rb")

    def _request(self, method: str, path: str, body: bytes = b"") -> _Reply:
        """Send one request and read the head of its reply.

        Every route goes through here.  The body is left on the socket
        for :meth:`_body` or :meth:`_chunk`.
        """
        # The Host header as http.client writes it: an IPv6 literal in
        # brackets, the port unless it is HTTP's default.
        host = f"[{self.host}]" if ":" in self.host else self.host
        if self.port != 80:
            host += f":{self.port}"
        head = f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        if method == "POST":
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        data = head.encode("latin-1") + b"\r\n" + body
        if self._reading:
            # The caller abandoned the previous stream part-way; the rest
            # of that reply is still on the socket (or yet to be sent).
            self.close()
        # A kept-alive connection the server dropped between requests
        # gets one silent reconnect; a fresh one that fails is a server
        # that cannot be reached.
        for fresh in (self._sock is None, True):
            try:
                if self._sock is None:
                    self._connect()
                self._reading = True
                self._sock.sendall(data)
                return self._head()
            except OSError as exc:
                self.close()
                if fresh:
                    raise ServiceError(
                        f"service at {self.host}:{self.port} unreachable: {exc}"
                    ) from exc

    def _head(self) -> _Reply:
        if not self._reader.peek(1):
            # Not one byte of a reply: the server closed the connection
            # (a kept-alive socket it dropped, or a process that died).
            raise ConnectionError("the connection closed before a reply")
        version, _, rest = read_line(self._reader, "reply").partition(b" ")
        code = rest[:3]
        if not version.startswith(b"HTTP/1.") or not code.isdigit():
            raise ServiceError(f"not an HTTP/1.x status line: {version + b' ' + rest!r}")
        length, chunked, close = None, False, False
        for name, value in read_fields(self._reader, "reply"):
            value = value.lower()
            if name == b"content-length":
                if not value.isdigit():
                    raise ServiceError(f"bad Content-Length {value!r}")
                length = int(value)
            elif name == b"transfer-encoding":
                if value != b"chunked":
                    raise ServiceError(f"unsupported Transfer-Encoding {value!r}")
                chunked = True
            elif name == b"connection":
                close = value == b"close"
        if chunked:
            length = None
        elif length is None:
            raise ServiceError("reply has neither a Content-Length nor a chunked body")
        return _Reply(int(code), length, close)

    def _chunk(self, reply: _Reply) -> bytes | None:
        """The next chunk of a chunked body, or None once the last chunk
        and the trailer are read.  Chunk extensions and trailer fields
        are skipped."""
        size = int(read_line(self._reader, "reply").partition(b";")[0], 16)
        if size > 0:
            data = self._reader.read(size + 2)
            if len(data) != size + 2 or not data.endswith(b"\r\n"):
                raise ServiceError("reply torn: the connection closed mid-chunk")
            return data[:-2]
        if size < 0:
            raise ServiceError(f"negative chunk size {size}")
        for _ in read_fields(self._reader, "reply"):
            pass
        self._finish(reply)
        return None

    def _body(self, reply: _Reply) -> bytes:
        """The whole body of a JSON reply or a refusal."""
        if reply.length is None:
            raise ServiceError("expected a Content-Length body, got a chunked one")
        data = self._reader.read(reply.length)
        if len(data) != reply.length:
            raise ServiceError(
                f"reply torn: body ended after {len(data)} of {reply.length} bytes"
            )
        self._finish(reply)
        return data

    def _finish(self, reply: _Reply) -> None:
        """The reply is read to its end: the socket is idle again."""
        self._reading = False
        if reply.close:
            self.close()

    def _json(
        self, method: str, path: str, ok: tuple[int, ...] = (200,)
    ) -> dict[str, object]:
        reply = self._request(method, path)
        payload = self._body(reply)
        if reply.status not in ok:
            raise ServiceError(
                f"{method} {path} failed ({reply.status}): {payload.decode(errors='replace').strip()}"
            )
        return json.loads(payload)

    # -- API ------------------------------------------------------------

    def submit(self, request: CampaignRequest | dict) -> Iterator[dict]:
        """Submit a campaign; yields decoded events as the server streams.

        The server sends one event per chunk, so each chunk is decoded
        the moment the server flushes it.

        Transport failures — connection refused/reset, or a reply torn
        before a terminal event (the server died mid-submission) — are
        retried up to ``max_attempts`` times with jittered exponential
        backoff, reopening the persistent connection each time.  The
        retry is safe because submissions are idempotent: completed
        cells come back as cache hits, in-flight ones coalesce.
        ``cell`` events are deduplicated by digest across attempts and a
        repeated ``accepted`` is suppressed, so the caller's event
        sequence looks like one clean submission.
        """
        if isinstance(request, CampaignRequest):
            request = request.as_dict()
        body = json.dumps(request).encode()
        seen_digests: set[str] = set()
        accepted_sent = False
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                delay = self.backoff * (2 ** (attempt - 1))
                time.sleep(delay * (0.5 + random.random()))
            try:
                reply = self._request("POST", "/submit", body)
            except ServiceError as exc:
                last_error = exc
                continue
            if reply.status != 200:
                detail = self._body(reply).decode(errors="replace").strip()
                raise ServiceError(
                    f"submission rejected ({reply.status}): {detail}"
                )
            try:
                while (chunk := self._chunk(reply)) is not None:
                    event = json.loads(chunk)
                    kind = event.get("event")
                    if kind == "accepted":
                        if accepted_sent:
                            continue
                        accepted_sent = True
                    elif kind == "cell":
                        digest = event.get("digest")
                        if digest is not None:
                            if digest in seen_digests:
                                continue  # replayed by a retried attempt
                            seen_digests.add(digest)
                    elif kind in _TERMINAL_EVENTS:
                        # Read on to the zero-length chunk that ends the
                        # reply: only then is the connection idle and the
                        # next request goes out on this same socket.
                        while self._chunk(reply) is not None:
                            pass
                        yield event
                        return
                    yield event
                last_error = ServiceError(
                    "event stream ended without a terminal event "
                    "(server died mid-submission)"
                )
            except (OSError, ValueError, ServiceError) as exc:
                # Reset mid-stream, or a reply torn by a dying server.
                last_error = exc
            # The connection is in an unknown state after a torn stream;
            # drop it so the next attempt starts clean.
            self.close()
        raise ServiceError(
            f"submission to {self.host}:{self.port} failed after "
            f"{self.max_attempts} attempts: {last_error}"
        ) from last_error

    def submit_and_collect(self, request: CampaignRequest | dict) -> list[dict]:
        """Submit and block until the terminal event; returns all events."""
        return list(self.submit(request))

    def status(self) -> dict[str, object]:
        """The server's /status payload (stats, hit rate, recovery)."""
        return self._json("GET", "/status")

    def healthz(self) -> dict[str, object]:
        """Liveness probe; raises :class:`ServiceError` when down."""
        return self._json("GET", "/healthz")

    def health(self) -> dict[str, object]:
        """The server's full /health payload (watermarks, degraded state).

        A degraded server answers 503 with the same JSON body — that is
        still a *response*, so it is returned, not raised; check the
        ``ok`` / ``degraded`` fields.
        """
        return self._json("GET", "/health", ok=(200, 503))

    def shutdown(self) -> dict[str, object]:
        """Ask the server to stop serving and release its pool."""
        result = self._json("POST", "/shutdown")
        self.close()
        return result

    def close(self) -> None:
        """Drop the persistent connection (reopened on next use)."""
        self._reading = False
        sock, reader = self._sock, self._reader
        self._sock = self._reader = None
        if sock is not None:
            try:
                reader.close()
            finally:
                sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
