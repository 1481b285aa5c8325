"""Tests for service survivability: /health, degraded admission, watchdog."""

from __future__ import annotations

import threading

import pytest

from repro.service import (
    BenchmarkService,
    CampaignRequest,
    ServiceClient,
    ServiceHTTPServer,
)

pytestmark = pytest.mark.tier2


def _request(**overrides):
    payload = {
        "graphs": ("urand",),
        "kernels": ("bfs",),
        "frameworks": ("gap",),
        "modes": ("baseline",),
        "scale": 6,
    }
    payload.update(overrides)
    return CampaignRequest(**payload)


@pytest.fixture()
def service(tmp_path):
    svc = BenchmarkService(
        archive_dir=tmp_path / "archive",
        cache_dir=tmp_path / "graphs",
        jobs=1,
        watchdog_interval=0.1,
    )
    yield svc
    svc.shutdown()


def _cells(events):
    return [e for e in events if e["event"] == "cell"]


class TestHealth:
    def test_healthy_payload(self, service):
        payload = service.health()
        assert payload["ok"] is True
        assert payload["degraded"] is False
        assert payload["degraded_reasons"] == []
        assert payload["draining"] is False
        assert payload["engine_alive"] is True
        assert payload["engine_restarts"] == 0
        assert payload["queue_capacity"] > 0
        assert payload["quarantine_count"] == 0
        assert payload["last_scrub_verdict"] is None
        assert "watermarks" in payload
        assert set(payload["graph_cache"]) == {
            "hits", "misses", "corrupt", "corrupt_events",
        }

    def test_degraded_flips_ok(self, service):
        service.min_free_bytes = 10**18
        payload = service.health()
        assert payload["ok"] is False
        assert payload["degraded"] is True
        assert any("disk critically low" in r for r in payload["degraded_reasons"])

    def test_health_over_http(self, tmp_path):
        svc = BenchmarkService(
            archive_dir=tmp_path / "archive", cache_dir=tmp_path / "graphs"
        )
        server = ServiceHTTPServer(("127.0.0.1", 0), svc)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            with ServiceClient(host=host, port=port) as client:
                payload = client.health()
                assert payload["ok"] is True
                # A degraded server answers 503 with the same JSON body;
                # the client returns it rather than raising.
                svc.min_free_bytes = 10**18
                degraded = client.health()
                assert degraded["ok"] is False
                assert degraded["degraded"] is True
        finally:
            server.shutdown()
            server.server_close()
            svc.shutdown()


class TestDegradedAdmission:
    def test_misses_rejected_hits_still_served(self, service):
        # Seed one cell while healthy...
        seeded = service.submit_collect(_request())
        assert seeded[-1]["event"] == "done"
        # ...then cross the disk watermark.
        service.min_free_bytes = 10**18
        events = service.submit_collect(_request(kernels=("bfs", "cc")))
        terminal = events[-1]
        assert terminal["event"] == "degraded"
        assert terminal["rejected"] == 1
        assert terminal["rejected_cells"] == [["urand", "baseline", "cc", "gap"]]
        assert terminal["retry_after_seconds"] > 0
        assert any("disk critically low" in r for r in terminal["reasons"])
        # The seeded cell was still served read-only, as a hit.
        cells = _cells(events)
        assert len(cells) == 1
        assert cells[0]["cached"] is True
        assert service.stats["cells_degraded_rejected"] == 1
        assert service.stats["submissions_degraded"] == 1

    def test_rejection_writes_nothing(self, service, tmp_path):
        service.min_free_bytes = 10**18
        events = service.submit_collect(_request())
        assert events[-1]["event"] == "degraded"
        runs_dir = tmp_path / "archive" / "runs"
        assert not runs_dir.is_dir() or not list(runs_dir.glob("*"))
        assert service.status()["indexed_cells"] == 0
        assert service.stats["cells_executed"] == 0

    def test_draining_is_a_degraded_reason(self, service):
        service._draining = True
        reasons = service.degraded_reasons()
        assert any("draining" in r for r in reasons)
        events = service.submit_collect(_request())
        assert events[-1]["event"] == "degraded"


class TestWatchdog:
    # The engine thread dies by design here; pytest flags the escaped
    # SystemExit as an unhandled thread exception — that IS the test.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_engine_crash_resolves_job_and_restarts(self, service, monkeypatch):
        # SystemExit is a BaseException: it escapes _engine_loop's
        # Exception handler and kills the engine thread mid-job —
        # exactly the hole the watchdog exists to cover.
        monkeypatch.setattr(
            service,
            "_execute",
            lambda job: (_ for _ in ()).throw(SystemExit("engine died")),
        )
        events = service.submit_collect(_request())
        # The orphaned job resolved with error events, not a hang.
        assert events[-1]["event"] == "error"
        assert "engine thread crashed" in events[-1]["message"]
        cells = _cells(events)
        assert cells and cells[0]["result"] is None
        assert "engine thread crashed" in cells[0]["error"]

        # The watchdog respawned the engine; service keeps working.
        monkeypatch.undo()
        deadline = threading.Event()
        for _ in range(100):
            if service.health()["engine_alive"]:
                break
            deadline.wait(0.05)
        assert service.health()["engine_alive"]
        assert service.stats["engine_restarts"] == 1
        recovered = service.submit_collect(_request())
        assert recovered[-1]["event"] == "done"
        assert len(_cells(recovered)) == 1

    def test_job_level_failure_does_not_restart_engine(self, service, monkeypatch):
        # Plain exceptions are contained by the engine loop itself: the
        # job fails, the engine survives, the watchdog never fires.
        def _boom(job):
            raise RuntimeError("job blew up")

        monkeypatch.setattr(service, "_execute", _boom)
        events = service.submit_collect(_request())
        assert events[-1]["event"] == "error"
        assert service.health()["engine_alive"]
        assert service.stats["engine_restarts"] == 0
        assert service.stats["jobs_failed"] == 1


class TestDrain:
    def test_drain_is_terminal_and_idempotent(self, tmp_path):
        svc = BenchmarkService(
            archive_dir=tmp_path / "archive", cache_dir=tmp_path / "graphs"
        )
        events = svc.submit_collect(_request())
        assert events[-1]["event"] == "done"
        svc.drain(timeout=30.0)
        assert svc._draining is True
        svc.drain(timeout=1.0)  # idempotent, like shutdown
        svc.shutdown()
