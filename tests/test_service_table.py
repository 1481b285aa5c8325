"""The service's decision core, scripted: nothing concurrent, nothing on
the network or the disk, no clock.

``_CellTable`` decides everything about a cell — hit, subscription, owned
miss, rejected miss; who is told what when a cell lands, fails or is
archived; what stays hot — and reaches the archive only through the
``load`` callable it is given, by the digest → run map it is seeded
with.  Here both are dicts, a subscriber is a
``SimpleQueue`` read without blocking, and every interleaving is a
sequence of calls: the owner that bounces off a full queue *between* a
follower's classification and its wait, which real threads hit only by
luck, is three lines.
"""

from __future__ import annotations

import json
from queue import SimpleQueue

import pytest

from repro.core.results import RunResult
from repro.frameworks import Mode
from repro.service import server
from repro.service.server import _cell_line, _CellTable

KEYS = [("urand", "baseline", kernel, "gap") for kernel in ("bfs", "cc", "pr")]
A, B, C = "digest-a", "digest-b", "digest-c"
BFS, CC, PR = KEYS


def _result(key, status="ok"):
    graph, mode, kernel, framework = key
    return RunResult(framework, kernel, graph, Mode(mode), [0.25], status=status)


def _hit(digest, key, run_id="run-1"):
    return _cell_line(digest, key, _result(key), run_id)


def _drain(queue):
    """Everything a subscriber has been sent so far (never blocks)."""
    messages = []
    while not queue.empty():
        messages.append(queue.get_nowait())
    return messages


class Archive:
    """The ``load`` seam: run id -> ``[(digest, line), ...]``, the digest
    -> run id map the table is seeded with, and a log of the runs loaded."""

    def __init__(self):
        self.runs = {}
        self.index = {}
        self.loads = []

    def add(self, run_id, cells):
        self.runs[run_id] = cells
        self.index.update((digest, run_id) for digest, _ in cells)

    def __call__(self, run_id):
        self.loads.append(run_id)
        return iter(self.runs.get(run_id, ()))


@pytest.fixture()
def archive():
    return Archive()


@pytest.fixture()
def table(archive):
    return _CellTable(archive, archive.index)


class TestClassify:
    def test_all_hit_needs_no_probe_and_touches_no_queue(self, table, archive):
        archive.add("run-1", [(A, _hit(A, BFS)), (B, _hit(B, CC))])
        queue = SimpleQueue()
        hit_lines, owned, pending, rejected = table.classify(
            [BFS, CC], [A, B], queue, None
        )
        assert hit_lines == [_hit(A, BFS), _hit(B, CC)]
        assert (owned, pending, rejected) == ([], set(), [])
        assert queue.empty() and table.inflight == {}
        assert archive.loads == ["run-1"]  # one load warmed the whole run
        assert table.stats["submissions"] == 1
        assert table.stats["cells_requested"] == 2
        assert table.stats["cells_hit"] == 2

    def test_empty_load_is_a_miss(self, table, archive):
        archive.index[A] = "run-gone"  # mapped, but no longer servable
        assert table.classify([BFS], [A], SimpleQueue(), None) is None
        hit_lines, owned, _, _ = table.classify([BFS], [A], SimpleQueue(), [])
        assert hit_lines == [] and owned == [(A, BFS)]
        # Asked again: nothing was remembered.
        assert archive.loads == ["run-gone", "run-gone"]

    def test_unmapped_digest_never_reads_the_archive(self, table, archive):
        hit_lines, owned, _, _ = table.classify([BFS], [A], SimpleQueue(), [])
        assert hit_lines == [] and owned == [(A, BFS)]
        assert archive.loads == []

    def test_unprobed_miss_returns_none_and_changes_nothing(self, table):
        before = dict(table.stats)
        assert table.classify([BFS], [A], SimpleQueue(), None) is None
        assert table.stats == before
        assert table.inflight == {}

    def test_owned_miss_is_claimed_for_the_caller(self, table):
        queue = SimpleQueue()
        hit_lines, owned, pending, rejected = table.classify(
            [BFS, CC], [A, B], queue, []
        )
        assert hit_lines == [] and rejected == []
        assert owned == [(A, BFS), (B, CC)]
        assert pending == {A, B}
        assert table.inflight[A].subscribers == [queue]
        assert table.stats["cells_hit"] == table.stats["cells_coalesced"] == 0

    def test_all_coalesced_needs_no_probe(self, table):
        table.classify([BFS], [A], SimpleQueue(), [])
        follower = SimpleQueue()
        hit_lines, owned, pending, rejected = table.classify(
            [BFS], [A], follower, None
        )
        assert (hit_lines, owned, rejected) == ([], [], [])
        assert pending == {A}
        assert follower in table.inflight[A].subscribers
        assert table.stats["cells_coalesced"] == 1
        assert table.stats["submissions"] == 2

    def test_mixed_hit_subscription_and_owned(self, table, archive):
        archive.add("run-1", [(A, _hit(A, BFS))])
        table.classify([CC], [B], SimpleQueue(), [])  # someone else owns B
        queue = SimpleQueue()
        assert table.classify(KEYS, [A, B, C], queue, None) is None
        hit_lines, owned, pending, rejected = table.classify(
            KEYS, [A, B, C], queue, []
        )
        assert hit_lines == [_hit(A, BFS)]
        assert owned == [(C, PR)]
        assert pending == {B, C}
        assert rejected == []
        assert table.stats["submissions"] == 2  # the unprobed pass counted nothing
        assert table.stats["cells_hit"] == 1
        assert table.stats["cells_coalesced"] == 1

    def test_degraded_rejects_misses_and_still_serves_the_rest(self, table, archive):
        archive.add("run-1", [(A, _hit(A, BFS))])
        table.classify([CC], [B], SimpleQueue(), [])
        hit_lines, owned, pending, rejected = table.classify(
            KEYS, [A, B, C], SimpleQueue(), ["disk critically low"]
        )
        assert hit_lines == [_hit(A, BFS)]
        assert owned == [] and C not in table.inflight  # nothing new was claimed
        assert pending == {B}  # a subscription writes nothing: still served
        assert rejected == [PR]
        assert table.stats["submissions_degraded"] == 1
        assert table.stats["cells_degraded_rejected"] == 1


class TestPublishFailCommit:
    def test_publish_reaches_every_subscriber_and_replays_to_a_late_one(self, table):
        owner, follower, late = SimpleQueue(), SimpleQueue(), SimpleQueue()
        table.classify([BFS], [A], owner, [])
        table.classify([BFS], [A], follower, None)
        line = _cell_line(A, BFS, _result(BFS))
        table.publish(A, line)
        assert _drain(owner) == _drain(follower) == [("cell", A, line)]
        assert table.stats["cells_executed"] == 1
        # Executed but not yet committed: a newcomer gets the line at once.
        hit_lines, owned, pending, _ = table.classify([BFS], [A], late, None)
        assert hit_lines == [line]
        assert owned == [] and pending == set() and late.empty()

    def test_fail_resolves_only_unpublished_cells(self, table):
        owner, follower = SimpleQueue(), SimpleQueue()
        _, owned, _, _ = table.classify([BFS, CC], [A, B], owner, [])
        table.classify([BFS, CC], [A, B], follower, None)
        line = _cell_line(A, BFS, _result(BFS))
        table.publish(A, line)
        table.fail(owned, "campaign execution failed: boom", "jobs_failed")
        sent = _drain(follower)
        assert sent[0] == ("cell", A, line)
        assert [digest for _, digest, _ in sent] == [A, B]  # A not sent twice
        failed = json.loads(sent[1][2])
        assert failed["result"] is None and failed["cached"] is False
        assert failed["error"] == "campaign execution failed: boom"
        assert failed["cell"] == list(CC)
        assert table.inflight == {}
        assert table.stats["jobs_failed"] == 1

    def test_bounced_owner_does_not_strand_its_subscribers(self, table):
        """The hang: an owner bounces off a full queue after a follower
        subscribed to its claim.  The follower must hear about it."""
        owner, follower = SimpleQueue(), SimpleQueue()
        _, owned, _, _ = table.classify([BFS], [A], owner, [])
        _, _, pending, _ = table.classify([BFS], [A], follower, None)
        assert pending == {A}
        table.fail(owned, "server at capacity: 1 campaigns already queued", "jobs_rejected")
        (kind, digest, line), = _drain(follower)
        assert (kind, digest) == ("cell", A)
        assert "server at capacity" in json.loads(line)["error"]
        assert table.inflight == {}
        assert table.stats["jobs_rejected"] == 1
        assert table.stats["jobs_failed"] == 0
        # And the cell is claimable again by whoever asks next.
        _, owned_again, _, _ = table.classify([BFS], [A], SimpleQueue(), [])
        assert owned_again == [(A, BFS)]

    def test_commit_memoizes_ok_cells_only(self, table, archive):
        _, owned, _, _ = table.classify([BFS, CC], [A, B], SimpleQueue(), [])
        table.commit(
            [(A, BFS, _result(BFS)), (B, CC, _result(CC, status="timeout"))], "run-9"
        )
        assert table.inflight == {}
        assert list(table.results) == [A]
        del archive.loads[:]
        hit_lines, owned, _, _ = table.classify([BFS, CC], [A, B], SimpleQueue(), [])
        assert hit_lines == [_hit(A, BFS, "run-9")]
        assert json.loads(hit_lines[0])["cached"] is True
        assert owned == [(B, CC)]  # the failure re-executes...
        assert archive.loads == []  # ...and maps to no run
        assert table.runs == {A: "run-9"}

    def test_fillers_are_the_hot_lines_only(self, table, archive):
        archive.add("run-1", [(B, _hit(B, CC))])
        table.commit([(A, BFS, _result(BFS))], "run-9")
        assert table.fillers([A, B, C]) == [(A, _hit(A, BFS, "run-9"))]
        assert archive.loads == []  # a grid-filler never reads the archive

    def test_snapshot_and_count(self, table):
        table.classify([BFS], [A], SimpleQueue(), [])
        table.commit([(B, CC, _result(CC))], "run-9")
        table.count("connections_reset")
        table.count("cells_recovered", 3)
        stats, inflight, hot, mapped = table.snapshot()
        assert (inflight, hot, mapped) == (1, 1, 1)
        assert stats["connections_reset"] == 1 and stats["cells_recovered"] == 3
        stats["submissions"] = 99
        assert table.stats["submissions"] == 1  # a copy


class TestEviction:
    @pytest.fixture(autouse=True)
    def two_cells(self, monkeypatch):
        monkeypatch.setattr(server, "RESULT_CACHE_SIZE", 2)

    def test_evicted_cell_reloads_through_load(self, table, archive):
        for run, (digest, key) in enumerate(zip((A, B, C), KEYS)):
            archive.add(f"run-{run}", [(digest, _hit(digest, key))])
            table.classify([key], [digest], SimpleQueue(), None)
        assert list(table.results) == [B, C]  # A, the oldest, went
        assert archive.loads == ["run-0", "run-1", "run-2"]
        hit_lines, _, _, _ = table.classify([BFS], [A], SimpleQueue(), None)
        assert hit_lines == [_hit(A, BFS)]
        assert archive.loads == ["run-0", "run-1", "run-2", "run-0"]
        assert list(table.results) == [C, A]

    def test_evicted_commit_reloads_from_its_run(self, table, archive):
        table.commit([(A, BFS, _result(BFS))], "run-9")
        archive.runs["run-9"] = [(A, _hit(A, BFS, "run-9"))]
        table.commit([(B, CC, _result(CC)), (C, PR, _result(PR))], "run-10")
        assert list(table.results) == [B, C]  # A went; its run did not
        hit_lines, _, _, _ = table.classify([BFS], [A], SimpleQueue(), None)
        assert hit_lines == [_hit(A, BFS, "run-9")]
        assert archive.loads == ["run-9"]

    def test_a_touch_keeps_a_cell_hot(self, table, archive):
        for run, (digest, key) in enumerate(zip((A, B), KEYS)):
            archive.add(f"run-{run}", [(digest, _hit(digest, key))])
            table.classify([key], [digest], SimpleQueue(), None)
        table.classify([BFS], [A], SimpleQueue(), None)  # touch A: B is now oldest
        table.commit([(C, PR, _result(PR))], "run-9")
        assert list(table.results) == [A, C]
        del archive.loads[:]
        table.classify([BFS], [A], SimpleQueue(), None)
        assert archive.loads == []  # still hot
