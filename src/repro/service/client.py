"""Streaming client for the benchmark service.

A thin wrapper over :mod:`http.client` kept deliberately dependency-free
(the container has no requests/httpx).  One :class:`ServiceClient` holds
one persistent HTTP/1.1 connection — the benchmark drives dozens of
these concurrently to model a fleet of submitters — and decodes the
server's chunked NDJSON stream incrementally, so callers see each cell
event the moment the server flushes it.  The connection only *stays*
persistent because every reply is read to its last chunk before the next
request is written: one submission is one request on one socket.

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

import http.client
import json
import random
import socket
import time
from typing import Iterator

from ..errors import ServiceError
from .protocol import CampaignRequest

__all__ = ["ServiceClient"]

#: Terminal event kinds: a stream that ended without one was torn.
_TERMINAL_EVENTS = ("done", "error", "degraded")

#: What a dropped connection looks like from ``http.client``.  Its *state*
#: errors (``CannotSendRequest``, ``ResponseNotReady``) are deliberately
#: not here: they mean this client misused a live connection, and
#: answering that with a reconnect sends the request a second time.
_CONNECTION_ERRORS = (OSError, http.client.BadStatusLine)


class ServiceClient:
    """Persistent-connection client for one service endpoint."""

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
        self._conn: http.client.HTTPConnection | None = None
        #: The last response handed out; its reply must be read to the
        #: end before the socket can carry another request.
        self._response: http.client.HTTPResponse | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._conn.connect()
            # Mirror the server: without TCP_NODELAY, Nagle holds each
            # small request/event segment for the delayed-ACK timer.
            self._conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        return self._conn

    def _request(self, method: str, path: str, body: bytes | None = None):
        headers = {"Content-Type": "application/json"} if body else {}
        if self._response is not None and not self._response.isclosed():
            # The caller abandoned the previous stream part-way; the rest
            # of that reply is still on the socket (or yet to be sent).
            self.close()
        # A kept-alive connection the server dropped between requests
        # gets one silent reconnect; a fresh one that fails is a server
        # that cannot be reached.
        for fresh in (self._conn is None, True):
            try:
                conn = self._connection()
                conn.request(method, path, body=body, headers=headers)
                self._response = conn.getresponse()
                return self._response
            except _CONNECTION_ERRORS as exc:
                self.close()
                if fresh:
                    raise ServiceError(
                        f"service at {self.host}:{self.port} unreachable: {exc}"
                    ) from exc

    def _json(self, method: str, path: str) -> dict[str, object]:
        resp = self._request(method, path)
        payload = resp.read()
        if resp.status != 200:
            raise ServiceError(
                f"{method} {path} failed ({resp.status}): {payload.decode(errors='replace').strip()}"
            )
        return json.loads(payload)

    # -- API ------------------------------------------------------------

    def submit(self, request: CampaignRequest | dict) -> Iterator[dict]:
        """Submit a campaign; yields decoded events as the server streams.

        ``http.client`` undoes the chunked transfer-encoding, so each
        ``readline()`` returns exactly one NDJSON event once the server
        flushes it.

        Transport failures — connection refused/reset, or a stream that
        ends before a terminal event (the server died mid-submission) —
        are retried up to ``max_attempts`` times with jittered
        exponential backoff, reopening the persistent connection each
        time.  The retry is safe because submissions are idempotent:
        completed cells come back as cache hits, in-flight ones
        coalesce.  ``cell`` events are deduplicated by digest across
        attempts and a repeated ``accepted`` is suppressed, so the
        caller's event sequence looks like one clean submission.
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
                resp = self._request("POST", "/submit", body)
            except ServiceError as exc:
                last_error = exc
                continue
            if resp.status != 200:
                detail = resp.read().decode(errors="replace").strip()
                raise ServiceError(
                    f"submission rejected ({resp.status}): {detail}"
                )
            try:
                saw_terminal = False
                while not saw_terminal:
                    line = resp.readline()
                    if not line:
                        break
                    line = line.strip()
                    if not line:
                        continue
                    event = json.loads(line)
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
                        saw_terminal = True
                        # Read on to the zero-length chunk that ends the
                        # reply: only then is the connection idle and the
                        # next request goes out on this same socket.
                        resp.read()
                    yield event
                if saw_terminal:
                    return
                last_error = ServiceError(
                    "event stream ended without a terminal event "
                    "(server died mid-submission)"
                )
            except (
                ConnectionError,
                http.client.HTTPException,
                OSError,
                ValueError,
            ) as exc:
                # Reset mid-stream, or a line torn by a dying server.
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
        resp = self._request("GET", "/health")
        payload = resp.read()
        if resp.status not in (200, 503):
            raise ServiceError(
                f"GET /health failed ({resp.status}): "
                f"{payload.decode(errors='replace').strip()}"
            )
        return json.loads(payload)

    def shutdown(self) -> dict[str, object]:
        """Ask the server to stop serving and release its pool."""
        result = self._json("POST", "/shutdown")
        self.close()
        return result

    def close(self) -> None:
        """Drop the persistent connection (reopened on next use)."""
        self._response = None
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
