"""Tests for the memoizing benchmark service (in-process and over HTTP)."""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.results import ResultSet, RunResult
from repro.errors import ServiceError
from repro.frameworks import Mode
from repro.resilience.journal import CheckpointJournal, campaign_fingerprint
from repro.service import (
    BenchmarkService,
    CampaignRequest,
    ServiceClient,
    ServiceHTTPServer,
)
from repro.store import RunArchive, scrub

pytestmark = pytest.mark.tier2


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


@pytest.fixture()
def service(tmp_path):
    svc = BenchmarkService(
        archive_dir=tmp_path / "archive", cache_dir=tmp_path / "graphs", jobs=1
    )
    yield svc
    svc.shutdown()


def _cells(events):
    return [e for e in events if e["event"] == "cell"]


class TestProtocol:
    def test_from_dict_round_trip(self):
        request = CampaignRequest.from_dict(
            {
                "graphs": "urand,kron",
                "kernels": ["bfs"],
                "frameworks": "gap",
                "modes": "baseline",
                "scale": 8,
            }
        )
        assert request.graphs == ("urand", "kron")
        assert CampaignRequest.from_dict(request.as_dict()) == request

    def test_unknown_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown request fields"):
            CampaignRequest.from_dict(
                {"graphs": "urand", "kernels": "bfs", "frameworks": "gap", "jobs": 4}
            )

    def test_unknown_axis_value_rejected(self):
        with pytest.raises(ServiceError, match="unknown graphs"):
            _request(graphs=("nonexistent",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ServiceError, match="no kernels"):
            _request(kernels=())

    def test_scale_bounds(self):
        with pytest.raises(ServiceError, match="out of range"):
            _request(scale=30)

    def test_campaign_id_is_stable(self):
        assert _request().campaign_id == _request().campaign_id
        assert _request().campaign_id != _request(scale=7).campaign_id

    def test_cell_keys_match_executor_enumeration(self):
        request = _request(kernels=("bfs", "cc"), modes=("baseline", "optimized"))
        keys = request.cell_keys()
        # graphs outermost, then modes, kernels, frameworks.
        assert keys[0] == ("urand", "baseline", "bfs", "gap")
        assert keys[1] == ("urand", "baseline", "cc", "gap")
        assert keys[2] == ("urand", "optimized", "bfs", "gap")


class TestMemoization:
    def test_miss_then_hit(self, service):
        request = _request()
        first = service.submit_collect(request)
        assert first[0]["event"] == "accepted"
        assert first[0]["hits"] == 0
        assert all(not c["cached"] for c in _cells(first))
        assert first[-1]["event"] == "done"
        assert first[-1]["executed"] == 2
        run_id = first[-1]["fresh_run_id"]
        assert run_id

        second = service.submit_collect(request)
        assert second[0]["hits"] == 2
        assert all(c["cached"] for c in _cells(second))
        assert all(c["run_id"] == run_id for c in _cells(second))
        assert second[-1]["executed"] == 0
        assert second[-1]["fresh_run_id"] is None

    def test_resubmission_results_byte_identical(self, service):
        request = _request()
        first = service.submit_collect(request)
        second = service.submit_collect(request)
        payload = lambda events: json.dumps(  # noqa: E731
            [c["result"] for c in _cells(events)], sort_keys=True
        )
        assert payload(first) == payload(second)

    def test_partial_overlap_executes_only_new_cells(self, service):
        service.submit_collect(_request(kernels=("bfs",)))
        events = service.submit_collect(_request(kernels=("bfs", "cc")))
        assert events[0]["hits"] == 1
        assert events[-1]["executed"] == 1
        cached = {tuple(c["cell"]): c["cached"] for c in _cells(events)}
        assert cached[("urand", "baseline", "bfs", "gap")] is True
        assert cached[("urand", "baseline", "cc", "gap")] is False

    def test_axis_order_does_not_cold_start_cells(self, service):
        service.submit_collect(_request(kernels=("bfs", "cc")))
        events = service.submit_collect(_request(kernels=("cc", "bfs")))
        assert events[-1]["executed"] == 0

    def test_topology_invisible_to_dedup(self, service, tmp_path):
        """A serial server and a parallel server share cache entries."""
        request = _request()
        service.submit_collect(request)
        other = BenchmarkService(
            archive_dir=service.archive.root, cache_dir=tmp_path / "graphs", jobs=2
        )
        try:
            events = other.submit_collect(request)
            assert events[-1]["executed"] == 0
        finally:
            other.shutdown()

    def test_cold_start_hits_come_from_the_archive(self, service, tmp_path):
        """A fresh service over the same archive serves hits from disk."""
        request = _request()
        first = service.submit_collect(request)
        reborn = BenchmarkService(
            archive_dir=service.archive.root, cache_dir=tmp_path / "graphs"
        )
        try:
            events = reborn.submit_collect(request)
            assert events[0]["hits"] == 2
            assert events[-1]["executed"] == 0
            assert {c["run_id"] for c in _cells(events)} == {
                first[-1]["fresh_run_id"]
            }
        finally:
            reborn.shutdown()

    def test_run_archived_outside_the_server_serves_as_hits(self, tmp_path):
        """A run archived straight through ``RunArchive.archive_run``, with
        the spec a request resolves to, is pure hits for a server started
        on that archive."""
        request = _request()
        record = RunArchive(tmp_path / "archive").archive_run(
            ResultSet(
                [
                    RunResult(framework, kernel, graph, Mode(mode), [0.25])
                    for graph, mode, kernel, framework in request.cell_keys()
                ]
            ),
            spec=request.spec(),
        )
        svc = BenchmarkService(
            archive_dir=tmp_path / "archive", cache_dir=tmp_path / "graphs"
        )
        try:
            events = svc.submit_collect(request)
            assert events[0]["hits"] == 2
            assert events[-1]["executed"] == 0
            assert {c["run_id"] for c in _cells(events)} == {record.run_id}
            assert svc.status()["indexed_cells"] == 2
        finally:
            svc.shutdown()

    def test_no_cell_index_file_is_written(self, service, tmp_path):
        """A miss, a ``--resume`` recovery and a scrub write runs, and no
        second record of which run holds which cell."""
        root = service.archive.root
        service.submit_collect(_request(kernels=("bfs",)))
        service.shutdown()
        spec = _request().spec()
        with CheckpointJournal.create(
            root / "journals" / "job-crashed-1.jsonl",
            campaign_fingerprint(spec, ["urand"], ["cc"], ["baseline"], ["gap"]),
        ) as journal:
            journal.record(RunResult("gap", "cc", "urand", Mode.BASELINE, [0.25]))
        resumed = BenchmarkService(
            archive_dir=root, cache_dir=tmp_path / "graphs", resume=True
        )
        try:
            assert resumed.recovery_report[0]["recovered_cells"] == 1
            assert resumed.status()["indexed_cells"] == 2
        finally:
            resumed.shutdown()
        assert scrub(RunArchive(root)).verdict == "clean"
        assert len(list((root / "runs").iterdir())) == 2
        assert not list(root.rglob("cell_index.jsonl"))

    def test_a_failed_archive_write_maps_nothing(self, service, monkeypatch):
        """The map never runs ahead of the archive: cells whose run could
        not be written stay misses."""

        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        request = _request(kernels=("bfs",))
        monkeypatch.setattr(service.archive, "archive_run", full_disk)
        assert service.submit_collect(request)[-1]["event"] == "error"
        assert service.status()["indexed_cells"] == 0
        monkeypatch.undo()
        assert service.submit_collect(request)[-1]["executed"] == 1

    def test_failed_cells_are_not_memoized(self, service):
        request = _request(kernels=("bfs",), trial_timeout=1e-9)
        first = service.submit_collect(request)
        statuses = {c["result"]["status"] for c in _cells(first)}
        assert statuses == {"timeout"}
        second = service.submit_collect(request)
        assert second[0]["hits"] == 0
        assert second[-1]["executed"] == 1


class TestCoalescing:
    def test_concurrent_identical_submissions_execute_once(self, service):
        request = _request()
        outcomes = [None] * 4

        def submit(i):
            outcomes[i] = service.submit_collect(request)

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(len(outcomes))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
        assert all(o is not None for o in outcomes)
        for events in outcomes:
            assert events[-1]["event"] == "done"
            assert len(_cells(events)) == 2
        # All four submissions were served by at most one execution per cell.
        assert service.stats["cells_executed"] == 2
        assert service.stats["jobs_executed"] <= 2
        assert (
            service.stats["cells_hit"] + service.stats["cells_coalesced"]
            == 4 * 2 - 2
        )

    def test_queue_full_rejects_with_error_event(self, tmp_path):
        svc = BenchmarkService(
            archive_dir=tmp_path / "archive",
            cache_dir=tmp_path / "graphs",
            max_pending_jobs=1,
        )
        try:
            # Saturate the engine: one executing + one queued.
            t1 = threading.Thread(
                target=svc.submit_collect, args=(_request(kernels=("pr",)),)
            )
            t2 = threading.Thread(
                target=svc.submit_collect, args=(_request(kernels=("cc",)),)
            )
            t1.start()
            t2.start()
            rejected = None
            for _ in range(50):
                events = svc.submit_collect(_request(kernels=("bfs",)))
                if events[0]["event"] == "error":
                    rejected = events
                    break
            t1.join(120.0)
            t2.join(120.0)
            if rejected is None:
                pytest.skip("engine drained faster than submissions arrived")
            assert "capacity" in rejected[0]["message"]
            # A rejected campaign leaves no inflight residue.
            assert svc.status()["inflight_cells"] == 0 or t1.is_alive()
        finally:
            svc.shutdown()


class TestHTTP:
    @pytest.fixture()
    def endpoint(self, service):
        server = ServiceHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server.server_address[:2]
        server.shutdown()
        server.server_close()

    def test_submit_streams_ndjson(self, endpoint, service):
        host, port = endpoint
        with ServiceClient(host, port) as client:
            events = client.submit_and_collect(_request())
            assert events[0]["event"] == "accepted"
            assert events[-1]["event"] == "done"
            again = client.submit_and_collect(_request())
            assert again[-1]["executed"] == 0

    def test_status_and_healthz(self, endpoint):
        host, port = endpoint
        with ServiceClient(host, port) as client:
            assert client.healthz() == {"ok": True}
            status = client.status()
            assert "indexed_cells" in status
            assert "hit_rate" in status

    def test_malformed_submission_is_400(self, endpoint):
        host, port = endpoint
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError, match="rejected"):
                client.submit_and_collect({"graphs": "urand"})
            with pytest.raises(ServiceError, match="rejected"):
                client.submit_and_collect({"graphs": "urand", "kernels": "bfs",
                                           "frameworks": "gap", "bogus": 1})

    def test_unknown_path_is_404(self, endpoint):
        host, port = endpoint
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError, match="404"):
                client._json("GET", "/nope")

    def test_unreachable_server_raises_service_error(self):
        client = ServiceClient("127.0.0.1", 1)  # nothing listens on port 1
        with pytest.raises(ServiceError, match="unreachable"):
            client.status()
