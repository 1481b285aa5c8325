"""The client's side of the request path: one request per submission, on
a connection that stays open.

Everything runs against an in-process :class:`ServiceHTTPServer` on an
ephemeral port.  The server under test counts the connections it accepts
(one handler thread each), which is how "the socket was reused" is told
apart from "the request got through somehow".
"""

from __future__ import annotations

import http.client
import json
import socket
import struct
import threading
import time

import pytest

from repro.errors import ServiceError
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


class _CountingServer(ServiceHTTPServer):
    """Remembers every connection it accepted (= handler threads started)."""

    def __init__(self, address, service) -> None:
        super().__init__(address, service)
        self.accepted: list[socket.socket] = []

    def process_request(self, request, client_address) -> None:
        self.accepted.append(request)
        super().process_request(request, client_address)

    def kill(self) -> None:
        """Stop listening and cut every open connection, as a dead process would."""
        self.shutdown()
        self.server_close()
        for sock in self.accepted:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its handler


def _serve(server: ServiceHTTPServer) -> None:
    threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()


@pytest.fixture()
def service(tmp_path):
    svc = BenchmarkService(
        archive_dir=tmp_path / "archive", cache_dir=tmp_path / "graphs", jobs=1
    )
    yield svc
    svc.shutdown()


@pytest.fixture()
def server(service):
    srv = _CountingServer(("127.0.0.1", 0), service)
    _serve(srv)
    yield srv
    srv.kill()


@pytest.fixture()
def client(server):
    host, port = server.server_address[:2]
    with ServiceClient(host, port, timeout=60.0) as cli:
        yield cli


def _local_port(client: ServiceClient) -> int:
    return client._conn.sock.getsockname()[1]


def _wait_for(condition, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.01)
    return condition()


class TestConnectionReuse:
    def test_sequential_submissions_share_one_connection(self, client, server, service):
        issued = 12
        first = client.submit_and_collect(_request())
        assert first[-1]["event"] == "done"
        port = _local_port(client)
        for _ in range(issued - 1):
            events = client.submit_and_collect(_request())
            assert events[-1]["event"] == "done"
            assert events[-1]["executed"] == 0
        assert service.stats["submissions"] == issued
        assert _local_port(client) == port
        assert len(server.accepted) == 1  # one handler thread, all along

    def test_other_routes_share_the_connection_too(self, client, server, service):
        client.healthz()
        client.submit_and_collect(_request())
        assert client.status()["submissions"] == 1
        assert client.health()["ok"] is True
        client.submit_and_collect(_request())
        assert service.stats["submissions"] == 2
        assert len(server.accepted) == 1

    def test_stopping_at_the_terminal_event_keeps_the_connection(
        self, client, server, service
    ):
        for _ in range(3):
            for event in client.submit(_request()):
                if event["event"] == "done":
                    break  # never asks the generator for more
        assert service.stats["submissions"] == 3
        assert len(server.accepted) == 1

    def test_breaking_mid_stream_leaves_the_client_usable(
        self, client, server, service
    ):
        client.submit_and_collect(_request())  # seed: what follows are hits
        for event in client.submit(_request()):
            assert event["event"] == "accepted"
            break  # cells and `done` are left unread
        events = client.submit_and_collect(_request())
        assert [e["event"] for e in events] == ["accepted", "cell", "cell", "done"]
        again = client.submit_and_collect(_request())
        assert again[-1]["event"] == "done"
        # Four issued, four seen: the abandoned one is not sent again, and
        # the half-read socket is replaced rather than written to.
        assert service.stats["submissions"] == 4
        assert len(server.accepted) == 2

    def test_abandoned_iterator_still_held_does_not_poison_the_next(
        self, client, service
    ):
        client.submit_and_collect(_request())
        held = client.submit(_request())
        assert next(held)["event"] == "accepted"
        events = client.submit_and_collect(_request())
        assert events[-1]["event"] == "done"
        assert service.stats["submissions"] == 3


class TestMissThroughHTTP:
    def test_unique_twelve_cell_miss_executes_twelve(self, client, service):
        request = _request(
            graphs=("kron", "road"),
            kernels=("bfs", "cc", "pr"),
            frameworks=("gap", "gkc"),
            seed=90210,
        )
        events = client.submit_and_collect(request)
        done = events[-1]
        assert done["event"] == "done"
        assert done["hits"] == 0
        assert done["executed"] == 12
        cells = [e for e in events if e["event"] == "cell"]
        assert len(cells) == 12
        assert not any(cell["cached"] for cell in cells)
        assert service.stats["submissions"] == 1
        assert service.stats["cells_executed"] == 12
        assert service.stats["cells_coalesced"] == 0


class TestSilentResendIsNarrow:
    @pytest.mark.parametrize(
        "state_error", [http.client.CannotSendRequest, http.client.ResponseNotReady]
    )
    def test_state_error_raises_instead_of_resending(
        self, client, server, service, monkeypatch, state_error
    ):
        client.submit_and_collect(_request())

        def misused(*args, **kwargs):
            raise state_error("injected")

        monkeypatch.setattr(client._conn, "request", misused)
        with pytest.raises(state_error):
            client.submit_and_collect(_request())
        assert service.stats["submissions"] == 1
        assert len(server.accepted) == 1  # no reconnect behind the caller's back

    def test_dropped_keepalive_gets_one_silent_reconnect(self, client, server, service):
        client.submit_and_collect(_request())
        server.accepted[0].shutdown(socket.SHUT_RDWR)  # server side goes away
        events = client.submit_and_collect(_request())
        assert events[-1]["event"] == "done"
        assert service.stats["submissions"] == 2
        assert len(server.accepted) == 2

    def test_fresh_connection_refused_is_not_retried_silently(self, monkeypatch):
        attempts = []
        real_connect = http.client.HTTPConnection.connect

        def counting_connect(self):
            attempts.append(1)
            real_connect(self)

        monkeypatch.setattr(http.client.HTTPConnection, "connect", counting_connect)
        with pytest.raises(ServiceError, match="unreachable"):
            ServiceClient("127.0.0.1", 1).status()  # nothing listens on port 1
        assert len(attempts) == 1


class TestServerRestart:
    def test_retried_submission_arrives_exactly_once(self, service):
        # Seeded before anything listens: the pool's workers are forked at
        # the first miss and would inherit (and keep open) a listening
        # socket, which a killed server process does not leave behind.
        service.submit_collect(_request())
        server = _CountingServer(("127.0.0.1", 0), service)
        _serve(server)
        host, port = server.server_address[:2]
        reborn: list[_CountingServer] = []

        def restart() -> None:
            time.sleep(0.3)
            reborn.append(_CountingServer((host, port), service))
            _serve(reborn[0])

        restarter = threading.Thread(target=restart)
        with ServiceClient(host, port, max_attempts=8, backoff=0.1) as client:
            client.submit_and_collect(_request())
            server.kill()
            restarter.start()
            try:
                # First attempt: the kept-alive socket is dead and the
                # reconnect is refused.  A later one finds the new server.
                events = client.submit_and_collect(_request())
            finally:
                restarter.join()
                for srv in reborn:
                    srv.kill()
        assert events[-1]["event"] == "done"
        assert events[-1]["executed"] == 0
        assert service.stats["submissions"] == 3
        assert len(reborn[0].accepted) == 1


class TestDroppedConnectionsAreCounted:
    def _reset_mid_reply(self, server, body: bytes) -> None:
        """Send one request, read nothing, and close with an RST."""
        sock = socket.create_connection(server.server_address[:2])
        sock.sendall(
            b"POST /submit HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        assert sock.recv(1, socket.MSG_PEEK)  # the reply has started
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()

    def test_reset_is_a_stat_not_a_traceback(self, client, server, service, capsys):
        client.submit_and_collect(_request())
        assert client.status()["connections_reset"] == 0
        self._reset_mid_reply(server, json.dumps(_request().as_dict()).encode())
        assert _wait_for(lambda: service.stats["connections_reset"] == 1)
        assert client.status()["connections_reset"] == 1
        assert "Traceback" not in capsys.readouterr().err
        # The clean goodbye of a client that read its replies is not a reset.
        client.close()
        time.sleep(0.1)
        assert service.stats["connections_reset"] == 1

    def test_other_handler_exceptions_stay_loud(
        self, client, service, monkeypatch, capsys
    ):
        def broken(request):
            raise RuntimeError("handler bug")

        monkeypatch.setattr(service, "submit_events", broken)
        with pytest.raises(ServiceError):
            client.submit_and_collect(_request())
        assert _wait_for(lambda: "handler bug" in capsys.readouterr().err)
        assert service.stats["connections_reset"] == 0


class TestSubmittingDoesNotLoadTheServer:
    """``repro submit``, ``repro status`` and the benchmark's load generator
    import the client from ``repro.service``; none of them runs a server,
    so none should import (and, under ``PYTHONDONTWRITEBYTECODE``, compile)
    the server module or ``http.server``."""

    def _fresh_interpreter(self, code: str) -> str:
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    def test_client_import_leaves_the_server_unloaded(self):
        out = self._fresh_interpreter(
            "import sys\n"
            "from repro.service import ServiceClient, CampaignRequest\n"
            "print([m for m in ('repro.service.server', 'http.server')"
            " if m in sys.modules])\n"
        )
        assert out == "[]"

    def test_server_names_import_on_first_use(self):
        out = self._fresh_interpreter(
            "import sys\n"
            "import repro.service\n"
            "assert 'repro.service.server' not in sys.modules\n"
            "from repro.service import BenchmarkService, ServiceHTTPServer\n"
            "from repro.service import serve_forever\n"
            "from repro.service import server\n"
            "assert BenchmarkService is server.BenchmarkService\n"
            "assert sorted(repro.service.__all__) == sorted(set(repro.service.__all__))\n"
            "assert all(hasattr(repro.service, n) for n in repro.service.__all__)\n"
            "print('ok')\n"
        )
        assert out == "ok"
        with pytest.raises(AttributeError):
            import repro.service

            repro.service.no_such_name
