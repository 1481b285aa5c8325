"""The durable-write primitive (:mod:`repro.durable`) and everything on it.

Four layers, bottom up:

* ``atomic_write`` and ``AppendLog`` themselves: what a reader trusts,
  what a writer cuts, what a failed write leaves behind;
* the byte format: a journal and a cell index are line-for-line what
  they were before the primitive existed (golden lines);
* the bugs the primitive fixes once: a log that tore stays appendable,
  and results files and the graph cache are inside the fault model;
* crash points *enumerated*: for the journal flow and the archive+index
  flow, every write, fsync and rename is failed in turn (the I/O shim's
  own counters enumerate them) and recovery must hold its invariants
  after each — what ``benchmarks/bench_chaos_soak.py`` only samples.

Plus a structural check that keeps a second copy of the primitive from
growing back.
"""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import pytest

from repro.core import GraphCase
from repro.core.results import ResultSet, RunResult
from repro.core.spec import BenchmarkSpec
from repro import durable
from repro.durable import AppendLog, atomic_write, seal_line
from repro.errors import CorruptLogError, JournalError
from repro.frameworks import Mode
from repro.graphs import GraphCache
from repro.faults import Fault, fired, installed
from repro.resilience.journal import CheckpointJournal, read_journal
from repro.store import RunArchive
from repro.store import archive as archive_mod
from repro.store.cellindex import CellIndex, cell_digest
from repro.store.environment import fingerprint
from repro.store.integrity import open_self_healing_index, scrub, verify_run

RAISING_KINDS = ("enospc", "torn-write", "fsync-fail")
HEADER = {"log_version": 1}
KERNELS = ("bfs", "cc", "pr")
FINGERPRINT = {"spec": {"scale": 8}, "graphs": ["kron"]}


@pytest.fixture(autouse=True)
def _no_env_plan(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


def _result(kernel="bfs"):
    return RunResult(
        framework="gap",
        kernel=kernel,
        graph="kron",
        mode=Mode.BASELINE,
        trial_seconds=[0.25],
        verified=True,
    )


def _key(kernel):
    return ("kron", "baseline", kernel, "gap")


def _line(record):
    return json.dumps(seal_line(record)).encode() + b"\n"


# -- atomic_write ------------------------------------------------------------


class TestAtomicWrite:
    def test_writes_bytes_and_creates_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.bin"
        atomic_write(target, b"payload")
        assert target.read_bytes() == b"payload"
        assert [p.name for p in target.parent.iterdir()] == ["out.bin"]

    @pytest.mark.parametrize(
        "fault",
        [
            Fault("enospc", operation="write"),
            Fault("torn-write"),
            Fault("fsync-fail"),
            Fault("enospc", operation="replace"),
        ],
        ids=lambda fault: f"{fault.kind}-{fault.operation or 'any'}",
    )
    def test_failure_keeps_the_previous_bytes(self, tmp_path, fault):
        target = tmp_path / "out.bin"
        atomic_write(target, b"old")
        with installed(fault):
            with pytest.raises(OSError):
                atomic_write(target, b"new and longer")
            # Keyed on the destination, never on the temp name.
            assert [f["path"] for f in fired()] == [str(target)]
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


# -- AppendLog ---------------------------------------------------------------


def _seed_log(path, count=2):
    log = AppendLog.create(path, HEADER)
    log.append([{"n": n} for n in range(count)])
    log.close()
    return path.read_bytes()


#: Ways a crash damages the *end* of a log: name -> (bytes after the
#: intact prefix, the problem ``scan`` reports).
NEVER_DURABLE = {
    "torn-tail": (b'{"n": 2, "cr', "line 4: torn trailing line"),
    "checksum-failed-final-line": (
        _line({"n": 2}).replace(b'"n": 2', b'"n": 7'),
        "line 4: checksum mismatch",
    ),
    "unparseable-final-line": (b'{"n": 2, "crc"\n', "line 4: unparseable"),
    "unsealed-final-line": (b'{"n": 2}\n', "line 4: checksum mismatch"),
}


class TestAppendLog:
    def test_round_trip_header_first(self, tmp_path):
        path = tmp_path / "log.jsonl"
        _seed_log(path)
        records = AppendLog.read(path)
        assert [r.get("n") for r in records] == [None, 0, 1]
        assert records[0]["log_version"] == 1
        assert AppendLog.scan(path) == (records, [])

    def test_missing_file_reads_empty_and_open_creates_nothing(self, tmp_path):
        path = tmp_path / "sub" / "log.jsonl"
        assert AppendLog.read(path) == []
        assert AppendLog.scan(path) == ([], [])
        log, records = AppendLog.open(path, HEADER)
        assert records == [] and not path.parent.exists()
        log.append([{"n": 0}])  # header + record, parents created
        log.close()
        assert path.read_bytes() == _line(HEADER) + _line({"n": 0})

    @pytest.mark.parametrize("damage", NEVER_DURABLE)
    def test_never_durable_end_is_dropped_then_cut(self, tmp_path, damage):
        path = tmp_path / "log.jsonl"
        intact = _seed_log(path)
        junk, problem = NEVER_DURABLE[damage]
        path.write_bytes(intact + junk)

        records, problems = AppendLog.scan(path)
        assert [r.get("n") for r in records] == [None, 0, 1]
        assert problems == [problem]  # the auditor sees it...
        log, durable = AppendLog.open(path, HEADER)
        assert durable == records  # ...the strict reader drops it...
        assert path.read_bytes() == intact + junk  # ...and never edits.

        log.append([{"n": 2}, {"n": 3}])
        log.close()
        # The first append cut the junk: nothing fused, nothing interior.
        assert path.read_bytes() == intact + _line({"n": 2}) + _line({"n": 3})
        assert AppendLog.scan(path)[1] == []

    def test_torn_tail_after_a_bad_final_line_is_one_damaged_end(self, tmp_path):
        path = tmp_path / "log.jsonl"
        intact = _seed_log(path)
        path.write_bytes(intact + b"{garbled\n" + b'{"n": 3, "c')
        assert len(AppendLog.read(path)) == 3
        assert len(AppendLog.scan(path)[1]) == 2

    @pytest.mark.parametrize("junk", [b"{not json", b'{"n": 0}', b"[1, 2]", b"\xff\xfe"])
    def test_interior_damage_raises_and_scan_reports(self, tmp_path, junk):
        path = tmp_path / "log.jsonl"
        lines = _seed_log(path).split(b"\n")
        lines[1] = junk  # terminated, with an intact line after it
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CorruptLogError, match="line 2"):
            AppendLog.read(path)
        with pytest.raises(CorruptLogError, match="line 2"):
            AppendLog.open(path, HEADER)
        records, problems = AppendLog.scan(path)
        assert [r.get("n") for r in records] == [None, 1]
        assert len(problems) == 1 and problems[0].startswith("line 2: ")

    @pytest.mark.parametrize("wreck", [b"", b'{"log_ver', b'{"log_version": 1}\n'])
    def test_no_intact_header_starts_over(self, tmp_path, wreck):
        # Nothing in such a file was ever acknowledged.
        path = tmp_path / "log.jsonl"
        path.write_bytes(wreck)
        log, records = AppendLog.open(path, HEADER)
        assert records == []
        log.append([{"n": 0}])
        log.close()
        assert path.read_bytes() == _line(HEADER) + _line({"n": 0})

    def test_create_truncates_and_acknowledges_the_header(self, tmp_path):
        path = tmp_path / "log.jsonl"
        _seed_log(path)
        AppendLog.create(path, HEADER).close()
        assert path.read_bytes() == _line(HEADER)

    @pytest.mark.parametrize("kind", RAISING_KINDS)
    def test_failed_append_is_cut_before_the_next(self, tmp_path, kind):
        path = tmp_path / "log.jsonl"
        intact = _seed_log(path)
        log, _ = AppendLog.open(path, HEADER)
        # Fail the second of three writes, or the call's one fsync.
        with installed(Fault(kind, first=0 if kind == "fsync-fail" else 1)):
            with pytest.raises(OSError):
                log.append([{"n": 2}, {"n": 3}, {"n": 4}])
            assert fired()
        # Unacknowledged: a reader sees at most a damaged end...
        assert [r.get("n") for r in AppendLog.read(path)][:3] == [None, 0, 1]
        log.append([{"n": 5}])
        log.close()
        # ...and the same writer's next append starts from the last
        # acknowledged byte, whatever part of the failed batch landed.
        assert path.read_bytes() == intact + _line({"n": 5})

    def test_file_deleted_under_a_closed_log_starts_over(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = AppendLog.create(path, HEADER)
        log.append([{"n": 0}])
        log.close()
        path.unlink()
        log.append([{"n": 1}])
        log.close()
        assert path.read_bytes() == _line(HEADER) + _line({"n": 1})

    def test_one_write_per_record_one_fsync_per_call(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(
            durable, "shim_write", lambda stream, data, path: calls.append("write")
        )
        monkeypatch.setattr(durable, "shim_fsync", lambda stream, path: calls.append("fsync"))
        log = AppendLog.create(tmp_path / "log.jsonl", HEADER)
        assert calls == ["write", "fsync"]  # the header is acknowledged alone
        log.append([{"n": 0}, {"n": 1}, {"n": 2}])
        log.close()
        assert calls[2:] == ["write", "write", "write", "fsync"]


# -- same bytes --------------------------------------------------------------


class TestGoldenLines:
    """Header and one record, byte for byte what the pre-primitive
    writers produced for the same inputs (captured at commit 7848fb8)."""

    def test_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CheckpointJournal.create(path, FINGERPRINT) as journal:
            journal.record(_result())
        assert path.read_bytes() == (
            b'{"journal_version": 1, "fingerprint": {"spec": {"scale": 8}, '
            b'"graphs": ["kron"]}, "crc": "6fa64237302c"}\n'
            b'{"result": {"framework": "gap", "kernel": "bfs", "graph": "kron", '
            b'"mode": "baseline", "trial_seconds": [0.25], "seconds": 0.25, '
            b'"verified": true, "edges_examined": 0, "rounds": 0, '
            b'"iterations": 0, "extras": {}, "status": "ok", "error": "", '
            b'"attempts": 1}, "crc": "0726d6e0b128"}\n'
        )

    def test_cell_index(self, tmp_path):
        path = tmp_path / "i.jsonl"
        with CellIndex(path) as index:
            index.add("d1", "run-a", _key("bfs"))
        assert path.read_bytes() == (
            b'{"cell_index_version": 1, "crc": "fa7642f1c34b"}\n'
            b'{"digest": "d1", "run_id": "run-a", "cell": ["kron", "baseline", '
            b'"bfs", "gap"], "crc": "3ac9f0d2f2f4"}\n'
        )


# -- a log that tore once stays appendable -----------------------------------


class TestTornLogStaysAppendable:
    def test_journal_torn_mid_record(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal.create(path, FINGERPRINT)
        journal.record(_result("bfs"))
        with installed(Fault("torn-write", path="j.jsonl")):
            with pytest.raises(OSError):
                journal.record(_result("cc"))
            assert fired()
        journal.close()

        resumed, completed = CheckpointJournal.resume(path, FINGERPRINT)
        assert set(completed) == {_key("bfs")}
        resumed.record(_result("cc"))
        resumed.record(_result("pr"))
        resumed.close()

        again, completed = CheckpointJournal.resume(path, FINGERPRINT)
        again.close()
        assert set(completed) == {_key(k) for k in KERNELS}
        assert set(read_journal(path)[1]) == set(completed)

    def test_journal_torn_header_resumes_as_a_fresh_campaign(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with installed(Fault("torn-write", path="j.jsonl")):
            with pytest.raises(OSError):
                CheckpointJournal.create(path, FINGERPRINT)
            assert fired()
        assert path.stat().st_size > 0  # a header fragment is on disk
        with pytest.raises(JournalError, match="no header"):
            read_journal(path)  # nothing to recover, and it says so

        journal, completed = CheckpointJournal.resume(path, FINGERPRINT)
        assert completed == {}
        journal.record(_result())
        journal.close()
        _, completed = CheckpointJournal.resume(path, FINGERPRINT)
        assert set(completed) == {_key("bfs")}

    def test_cell_index_torn_mid_add(self, tmp_path):
        path = tmp_path / "cell_index.jsonl"
        index = CellIndex(path)
        index.add("d1", "run-a", _key("bfs"))
        with installed(Fault("torn-write", path="cell_index")):
            with pytest.raises(OSError):
                index.add("d2", "run-b", _key("cc"))
            assert fired()
        index.close()

        with CellIndex(path) as reopened:
            assert "d2" not in reopened
            reopened.add("d2", "run-b", _key("cc"))
            reopened.add("d3", "run-c", _key("pr"))
        with CellIndex(path) as final:  # no ArchiveError
            assert [final.run_id_for(d) for d in ("d1", "d2", "d3")] == [
                "run-a",
                "run-b",
                "run-c",
            ]

    def test_cell_index_torn_header(self, tmp_path):
        path = tmp_path / "cell_index.jsonl"
        index = CellIndex(path)
        with installed(Fault("torn-write", path="cell_index")):
            with pytest.raises(OSError):
                index.add("d0", "run-z", _key("bfs"))
            assert fired()
        index.close()
        assert path.stat().st_size > 0

        with CellIndex(path) as reopened:
            assert len(reopened) == 0
            reopened.add("d1", "run-a", _key("bfs"))
        with CellIndex(path) as final:
            assert final.run_id_for("d1") == "run-a"

    def test_cell_index_failed_add_is_not_remembered(self, tmp_path):
        with CellIndex(tmp_path / "cell_index.jsonl") as index:
            with installed(Fault("fsync-fail", path="cell_index")):
                with pytest.raises(OSError):
                    index.add("d1", "run-a", _key("bfs"))
            assert "d1" not in index  # memory never runs ahead of disk
            assert index.add_many([("d1", "run-a", _key("bfs"))]) == 1


# -- results files and the graph cache are inside the fault model ------------


class TestResultsFileFaults:
    @pytest.mark.parametrize("kind", RAISING_KINDS)
    def test_failed_save_keeps_the_previous_file(self, tmp_path, kind):
        out = tmp_path / "out.json"
        ResultSet([_result()]).save_json(out)
        before = out.read_bytes()
        with installed(Fault(kind, path="out.json")):
            with pytest.raises(OSError):
                ResultSet([_result(), _result("cc")]).save_json(out)
            assert fired()
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestGraphCacheFaults:
    SCALE = 6

    def _store(self, cache):
        case = GraphCase.build("kron", scale=self.SCALE, seed=0)
        cache.store_views(
            "kron", self.SCALE, 0, case.graph, case.weighted, case.undirected
        )

    def test_bit_flip_on_the_way_to_disk_is_a_miss(self, tmp_path):
        cache = GraphCache(tmp_path)
        with installed(Fault("bit-flip", path=".npz")):
            self._store(cache)  # silent: the store "succeeds"
            assert [f["kind"] for f in fired()] == ["bit-flip"]
        # The sidecar was taken from the intended bytes, so the damaged
        # artifact cannot bless itself.
        assert cache.load_views("kron", self.SCALE, 0) is None
        assert cache.corrupt_events[-1]["reason"] == "checksum-mismatch"

    @pytest.mark.parametrize("kind", RAISING_KINDS)
    def test_failed_store_keeps_the_previous_artifact(self, tmp_path, kind):
        cache = GraphCache(tmp_path)
        self._store(cache)
        with installed(Fault(kind, path=".npz")):
            with pytest.raises(OSError):
                self._store(cache)
            assert fired()
        assert cache.load_views("kron", self.SCALE, 0) is not None
        assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]


# -- crash points, enumerated ------------------------------------------------


def _crash_points(kind, flow):
    """Run ``flow`` with the k-th ``kind`` operation failing, k = 0, 1, …

    Yields ``(k, acknowledged)`` after each run that crashed — the
    ``OSError`` *is* the crash — and stops at the first k where nothing
    fired: the shim counted past the flow's last write/fsync/rename, so
    every one of them has been failed exactly once.
    """
    for k in range(1000):
        acknowledged = []
        with installed(Fault(kind, first=k)):
            try:
                flow(k, acknowledged)
            except OSError:
                pass
            crashed = bool(fired())
        if not crashed:
            assert k > 0, f"{kind} never fired: the flow did no such I/O"
            return
        yield k, acknowledged
    raise AssertionError("crash-point enumeration did not terminate")


@pytest.mark.parametrize("kind", RAISING_KINDS)
def test_every_journal_crash_point_recovers(tmp_path, kind):
    def flow(k, acknowledged):
        journal = CheckpointJournal.create(tmp_path / f"{k}.jsonl", FINGERPRINT)
        for kernel in KERNELS:
            journal.record(_result(kernel))
            acknowledged.append(_key(kernel))
        journal.close()

    crashes = 0
    for k, acknowledged in _crash_points(kind, flow):
        crashes += 1
        path = tmp_path / f"{k}.jsonl"
        journal, completed = CheckpointJournal.resume(path, FINGERPRINT)
        assert set(acknowledged) <= set(completed), (kind, k)
        for kernel in KERNELS:  # finish the campaign...
            if _key(kernel) not in completed:
                journal.record(_result(kernel))
        journal.close()
        again, completed = CheckpointJournal.resume(path, FINGERPRINT)
        again.close()  # ...and it resumes again, whole.
        assert set(completed) == {_key(kernel) for kernel in KERNELS}, (kind, k)
        assert AppendLog.scan(path)[1] == [], (kind, k)
    assert crashes == 4  # create + three records: a write and an fsync each


def _files(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("kind", RAISING_KINDS)
def test_every_archive_and_index_crash_point_recovers(tmp_path, kind, monkeypatch):
    # Manifests and the listing carry a timestamp; pin it so "the new
    # bytes" of every file are knowable from a fault-free reference run.
    monkeypatch.setattr(archive_mod, "_utc_timestamp", lambda: "2020-01-01T00:00:00Z")
    spec = BenchmarkSpec(scale=8)
    meta = {"environment": fingerprint()}
    first = ResultSet([_result("bfs")], meta=meta)
    second = ResultSet([_result("cc"), _result("pr")], meta=meta)

    def archive_and_index(root, results, acknowledged):
        archive = RunArchive(root)
        record = archive.archive_run(results, spec=spec, source="test")
        acknowledged.append(record.run_id)
        with CellIndex.for_archive(archive) as index:
            index.add_many(
                (cell_digest(spec, r.cell_key), record.run_id, r.cell_key)
                for r in results
            )
        acknowledged.append("indexed")

    before_root, after_root = tmp_path / "before", tmp_path / "after"
    archive_and_index(before_root, first, [])
    shutil.copytree(before_root, after_root)
    archive_and_index(after_root, second, [])
    before, after = _files(before_root), _files(after_root)
    new_run = (set(after) - set(before)).pop().split("/")[1]

    def flow(k, acknowledged):
        root = tmp_path / f"crash-{k}"
        shutil.copytree(before_root, root)
        archive_and_index(root, second, acknowledged)

    crashes = 0
    for k, acknowledged in _crash_points(kind, flow):
        crashes += 1
        where = (kind, k)
        root = tmp_path / f"crash-{k}"
        # Before any recovery: every atomically written file is its
        # previous bytes or its new bytes, and the index log is the old
        # log plus at most a damaged end.
        for name, data in _files(root).items():
            if name == "cell_index.jsonl":
                assert data.startswith(before[name]), where
            else:
                assert data in (before.get(name), after[name]), (where, name)

        archive = RunArchive(root)
        index, _ = open_self_healing_index(archive)  # never raises
        index.close()
        assert scrub(archive).verdict in ("clean", "healed"), where
        listed = {str(entry["run_id"]) for entry in archive.list_runs()}
        for run_id in listed:
            assert verify_run(archive.runs_dir / run_id) == [], (where, run_id)
        if acknowledged:
            assert acknowledged[0] == new_run and new_run in listed, where
        with CellIndex.for_archive(archive) as index:
            for digest in index.digests():
                assert index.run_id_for(digest) in listed, (where, digest)
            if "indexed" in acknowledged:
                for result in second:
                    digest = cell_digest(spec, result.cell_key)
                    assert index.run_id_for(digest) == new_run, where
        assert scrub(archive).verdict == "clean", where

        # Re-running the interrupted step on the recovered store succeeds,
        # and lists a run that landed before its index.json update failed.
        archive_and_index(root, second, [])
        archive = RunArchive(root)
        assert new_run in {str(entry["run_id"]) for entry in archive.list_runs()}, where
        assert archive.resolve("latest") == new_run, where
        with CellIndex.for_archive(archive) as index:
            assert len(index) == 3, where
    # Two staged run files + index.json + two index lines are written;
    # each atomic write is also an fsync and a rename, plus the run
    # directory's own rename and the index batch's one fsync.
    assert crashes == {"enospc": 5 + 4, "torn-write": 5, "fsync-fail": 4}[kind]


# -- structure ---------------------------------------------------------------


def test_the_primitive_exists_once():
    """No second temp-file+rename, fsync, or line-sealing implementation.

    ``os.replace(`` / ``os.fsync(`` may appear only in the shim,
    ``tempfile.mkstemp(`` only in ``atomic_write``, and only
    :mod:`repro.durable` may seal or verify a log line.
    """
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    allowed = {
        r"\bos\.replace\(": {"faults.py"},
        r"\bos\.fsync\(": {"faults.py"},
        r"\bmkstemp\(": {"durable.py"},
        r"\b(verify_line|seal_line)\(": {"durable.py"},
    }
    offenders = []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        name = str(path.relative_to(src))
        for pattern, homes in allowed.items():
            if name not in homes and re.search(pattern, text):
                offenders.append(f"{name}: {pattern}")
    assert offenders == []
