"""A repeated ``/submit`` body is a lookup, not a second resolution.

The server keeps a bounded memo from the exact body bytes to the resolved
campaign (request, spec, identity, cells, digests) and its pure-hit
``accepted`` and ``done`` lines.  A repeat skips the JSON parse, the
validation and every digest, and is classified like any submission; a
reply it answers from the memo is byte for byte the reply the stream
stage writes.  What a body means must not change under the memo: a
dataset reference is resolved again each time, a refused body is refused
each time, and misses, evictions and degraded rejections behave as they
do without it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.service import (
    BenchmarkService,
    CampaignRequest,
    ServiceClient,
    ServiceHTTPServer,
)
from repro.service import server as server_module
from repro.store.cellindex import CellIdentity


def _request(**overrides) -> CampaignRequest:
    payload = {
        "graphs": ("urand",),
        "kernels": ("bfs", "cc"),
        "frameworks": ("gap",),
        "modes": ("baseline",),
        "scale": 6,
    }
    payload.update(overrides)
    return CampaignRequest(**payload)


def _body(request: CampaignRequest, **dumps) -> bytes:
    """The body ``ServiceClient.submit`` sends (or, with ``dumps``
    arguments, the same campaign in other bytes)."""
    return json.dumps(request.as_dict(), **dumps).encode()


def _reply(lines) -> bytes:
    return b"".join(lines)


def _events(reply: bytes) -> list[dict]:
    return [json.loads(line) for line in reply.splitlines()]


@pytest.fixture()
def service(tmp_path):
    svc = BenchmarkService(
        archive_dir=tmp_path / "archive", cache_dir=tmp_path / "graphs", jobs=1
    )
    yield svc
    svc.shutdown()


def _memo(service) -> dict:
    return service._bodies.entries


class TestSameBytes:
    @pytest.mark.parametrize(
        "second",
        [
            {"kernels": ("cc", "pr")},  # overlaps the first in cc
            {"graphs": ("kron",), "kernels": ("pr",)},  # shares no cell
        ],
        ids=["overlapping", "disjoint"],
    )
    def test_a_memoized_reply_is_the_streamed_reply(self, service, second):
        campaigns = [_request(), _request(**second)]
        for request in campaigns:
            service.submit_collect(request)  # executes: what follows hits
        for request in campaigns:
            streamed = _reply(service.submit_events(request))
            first = _reply(service.submit_body(_body(request)))
            memoized = _reply(service.submit_body(_body(request)))
            assert memoized == first == streamed
            assert _events(memoized)[-1]["executed"] == 0
        assert service.stats["submissions_from_memo"] == 2

    def test_a_replayed_line_is_answered_from_the_memo(self, service, monkeypatch):
        """Cells published but not yet archived are replayed: a memoized
        repeat answers them like hits, in the stream stage's bytes."""
        request, committed = _request(), threading.Event()
        commit = service._commit

        def held_commit(*args):
            committed.wait(60.0)
            return commit(*args)

        monkeypatch.setattr(service, "_commit", held_commit)
        owner = threading.Thread(
            target=lambda: _reply(service.submit_body(_body(request)))
        )
        owner.start()
        try:
            deadline = time.monotonic() + 60.0
            while service.stats["cells_executed"] < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert service.stats["cells_executed"] == 2
            streamed = _reply(service.submit_events(request))
            memoized = _reply(service.submit_body(_body(request)))
        finally:
            committed.set()
            owner.join(60.0)
        assert memoized == streamed
        events = _events(memoized)
        assert [e["event"] for e in events] == ["accepted", "cell", "cell", "done"]
        assert not any(e["cached"] for e in events[1:-1])
        assert service.stats["submissions_from_memo"] == 1


@pytest.fixture()
def resolution_calls(monkeypatch):
    """Calls of every step a resolution takes, by name."""
    calls = {"json.loads": 0, "from_dict": 0, "sha256": 0, "digest": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(json, "loads", counted("json.loads", json.loads))
    monkeypatch.setattr(hashlib, "sha256", counted("sha256", hashlib.sha256))
    monkeypatch.setattr(
        CellIdentity, "digest", counted("digest", CellIdentity.digest)
    )
    from_dict = CampaignRequest.from_dict.__func__
    monkeypatch.setattr(
        CampaignRequest, "from_dict", classmethod(counted("from_dict", from_dict))
    )
    return calls


class TestARepeatIsALookup:
    def test_a_repeat_parses_validates_and_digests_nothing(
        self, service, resolution_calls
    ):
        request = _request()
        reply = _reply(service.submit_body(_body(request)))  # executes
        assert _events(reply)[-1]["executed"] == 2
        resolution_calls.update(dict.fromkeys(resolution_calls, 0))
        repeat = _reply(service.submit_body(_body(request)))
        assert resolution_calls == dict.fromkeys(resolution_calls, 0)
        assert repeat.endswith(b'"executed":0,"fresh_run_id":null}\n')
        # The counting is live: the same campaign in other bytes resolves.
        other = _reply(service.submit_body(_body(request, indent=1)))
        assert other == repeat
        assert all(count > 0 for count in resolution_calls.values())

    def test_an_edited_dataset_is_a_miss(self, service, tmp_path):
        dataset = tmp_path / "demo.mtx"
        fixture = Path(__file__).parent / "fixtures" / "demo.mtx"
        dataset.write_bytes(fixture.read_bytes())
        request = _request(graphs=(f"file:{dataset}",), kernels=("bfs",), scale=5)
        body = _body(request)
        first = _events(_reply(service.submit_body(body)))
        assert first[-1]["executed"] == 1
        assert _events(_reply(service.submit_body(body)))[-1]["hits"] == 1
        dataset.write_text(
            dataset.read_text(encoding="ascii") + "% edited\n", encoding="ascii"
        )
        edited = _events(_reply(service.submit_body(body)))
        assert edited[-1]["executed"] == 1 and edited[-1]["hits"] == 0
        assert edited[1]["digest"] != first[1]["digest"]
        assert _memo(service) == {}
        assert service.stats["submissions_from_memo"] == 0

    @pytest.mark.parametrize(
        "body",
        [
            b"{not json",
            b"\xff\xfe",
            b"[]",
            b'{"graphs": "urand", "kernels": "bfs", "frameworks": "nope"}',
            b'{"graphs": "urand", "kernels": "bfs", "frameworks": "gap", "extra": 1}',
        ],
        ids=["not-json", "not-utf8", "not-an-object", "unknown-name", "unknown-field"],
    )
    def test_a_refused_body_is_refused_every_time(self, service, body):
        for _ in range(3):
            with pytest.raises((ServiceError, ValueError)):
                service.submit_body(body)
        assert _memo(service) == {}
        assert service.stats["submissions"] == 0

    def test_a_flood_of_bodies_stays_within_bounds(self, service, monkeypatch):
        monkeypatch.setattr(server_module, "RESOLVED_BODIES", 4)
        monkeypatch.setattr(server_module, "RESOLVED_BODY_BYTES", 512)
        request = _request()
        service.submit_collect(request)  # executes: every body below hits
        # One campaign in many spellings: distinct bytes, one resolution each.
        bodies = [_body(request, indent=indent) for indent in range(1, 7)]
        bodies += [_body(request, separators=(",", ":")), _body(request) + b" " * 600]
        replies = set()
        for body in bodies:
            replies.add(_reply(service.submit_body(body)))
            assert len(_memo(service)) <= 4
            assert all(len(kept) <= 512 for kept in _memo(service))
        assert len(replies) == 1  # every spelling, the same reply
        kept = [body for body in bodies if len(body) <= 512][-4:]
        assert list(_memo(service)) == kept  # least recently used out first
        assert _reply(service.submit_body(kept[0])) in replies
        assert list(_memo(service)) == kept[1:] + kept[:1]

    def test_evicted_cells_reload_for_a_memoized_body(self, service):
        request = _request()
        body = _body(request)
        fresh_run_id = _events(_reply(service.submit_body(body)))[-1]["fresh_run_id"]
        hit = _reply(service.submit_body(body))
        service._table.results.clear()  # the hot cache evicted every cell
        loads: list[str] = []
        load = service._table._load

        def counted_load(digest):
            loads.append(digest)
            return load(digest)

        service._table._load = counted_load
        reloaded = _reply(service.submit_body(body))
        assert reloaded == hit
        assert len(loads) == 1  # one archived run holds both cells
        events = _events(reloaded)
        assert all(e["cached"] and e["run_id"] == fresh_run_id for e in events[1:-1])
        assert len(service._table.results) == 2
        assert service.stats["submissions_from_memo"] == 2

    def test_a_memoized_miss_is_rejected_while_degraded(self, service):
        service.submit_collect(_request(kernels=("bfs",)))
        body = _body(_request())
        service.min_free_bytes = 10**18
        refusals = [_reply(service.submit_body(body)) for _ in range(2)]
        assert refusals[0] == refusals[1]
        degraded = _events(refusals[1])[-1]
        assert degraded["event"] == "degraded"
        assert (degraded["hits"], degraded["rejected"]) == (1, 1)
        assert service.stats["submissions_degraded"] == 2
        assert service.stats["submissions_from_memo"] == 1
        assert service.stats["cells_executed"] == 1
        assert service._inflight == {}
        service.min_free_bytes = 0
        assert _events(_reply(service.submit_body(body)))[-1]["executed"] == 1
        assert service.stats["submissions_from_memo"] == 2


class TestSharedByHandlerThreads:
    def test_threads_racing_over_a_small_memo(self, service, monkeypatch):
        """More threads than cores, switching every microsecond, over more
        bodies than the memo keeps: every reply is the one reply, the
        bound holds, and no submission goes uncounted."""
        monkeypatch.setattr(server_module, "RESOLVED_BODIES", 3)
        request = _request()
        service.submit_collect(request)
        expected = _reply(service.submit_events(request))
        bodies = [_body(request, indent=indent) for indent in range(1, 9)]
        threads, rounds, failures = 8, 40, []

        def submit(slot: int) -> None:
            try:
                for index in range(rounds):
                    body = bodies[(slot + index) % len(bodies)]
                    if _reply(service.submit_body(body)) != expected:
                        failures.append(slot)
                    if len(_memo(service)) > 3:
                        failures.append(("bound", len(_memo(service))))
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=submit, args=(slot,)) for slot in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert failures == []
        assert service.stats["submissions"] == 2 + threads * rounds
        assert 0 < service.stats["submissions_from_memo"] < threads * rounds


@pytest.fixture()
def server(service):
    srv = ServiceHTTPServer(("127.0.0.1", 0), service)
    threading.Thread(target=srv.serve_forever, args=(0.01,), daemon=True).start()
    yield srv
    srv.shutdown()
    srv.server_close()


class TestStatus:
    def test_status_counts_memoized_submissions_like_any_other(self, server):
        request = _request()
        with ServiceClient(*server.server_address[:2], timeout=60.0) as client:
            replies = [client.submit_and_collect(request) for _ in range(3)]
            status = client.status()
        assert replies[1] == replies[2]
        assert replies[2][-1]["hits"] == 2
        assert status["submissions_from_memo"] == 2
        assert status["submissions"] == 3
        assert status["cells_requested"] == 6
        assert status["cells_hit"] == 4
        assert status["cells_executed"] == 2
        assert status["hit_rate"] == round(4 / 6, 6)
