"""Tests for the persistent cell-level memoization index."""

from __future__ import annotations

import json

import pytest

import shutil
from pathlib import Path

from repro.core.results import ResultSet, RunResult
from repro.core.spec import BenchmarkSpec
from repro.errors import ArchiveError
from repro.frameworks import Mode
from repro.graphs.datasets import graph_identities
from repro.resilience.journal import (
    CheckpointJournal,
    campaign_fingerprint,
    read_journal,
)
from repro.store import RunArchive
from repro.store.cellindex import (
    CELL_INDEX_VERSION,
    CellIdentity,
    CellIndex,
    cell_digest,
    comparable_environment,
    derive_index_entries,
    identity_hasher,
    normalize_cell_key,
    spec_identity,
)
from repro.store.environment import COMPARABILITY_KEYS, fingerprint

CELL = ("kron", "baseline", "bfs", "gap")


def _result(graph="kron", kernel="bfs", framework="gap", status="ok"):
    return RunResult(
        framework=framework,
        kernel=kernel,
        graph=graph,
        mode=Mode.BASELINE,
        trial_seconds=[1.0] if status == "ok" else [],
        status=status,
    )


class TestDigest:
    def test_topology_outside_the_digest(self):
        serial = BenchmarkSpec(scale=8, jobs=1, pool="process")
        fanout = BenchmarkSpec(scale=8, jobs=4, pool="threads", batch_size=7)
        assert cell_digest(serial, CELL) == cell_digest(fanout, CELL)

    def test_measurement_knobs_inside_the_digest(self):
        base = BenchmarkSpec(scale=8)
        assert cell_digest(base, CELL) != cell_digest(BenchmarkSpec(scale=9), CELL)
        assert cell_digest(base, CELL) != cell_digest(
            BenchmarkSpec(scale=8, seed=1), CELL
        )
        assert cell_digest(base, CELL) != cell_digest(
            BenchmarkSpec(scale=8, trial_timeout=5.0), CELL
        )

    def test_distinct_cells_distinct_digests(self):
        spec = BenchmarkSpec(scale=8)
        other = ("kron", "baseline", "cc", "gap")
        assert cell_digest(spec, CELL) != cell_digest(spec, other)

    def test_hasher_prefix_equals_direct_form(self):
        spec = BenchmarkSpec(scale=8)
        hasher = identity_hasher(spec)
        assert cell_digest(None, CELL, hasher=hasher) == cell_digest(spec, CELL)
        # The hasher is reusable: copy() semantics keep the prefix intact.
        other = ("kron", "baseline", "cc", "gap")
        assert cell_digest(None, other, hasher=hasher) == cell_digest(spec, other)

    def test_environment_participates_via_comparability_slice(self):
        spec = BenchmarkSpec(scale=8)
        env = comparable_environment()
        assert set(env) == set(COMPARABILITY_KEYS)
        changed = dict(fingerprint())
        changed["numpy"] = "0.0.0-different"
        assert cell_digest(spec, CELL) != cell_digest(spec, CELL, environment=changed)

    def test_git_sha_does_not_cold_start_the_cache(self):
        spec = BenchmarkSpec(scale=8)
        moved = dict(fingerprint())
        moved["git_sha"] = "f" * 12
        assert cell_digest(spec, CELL) == cell_digest(spec, CELL, environment=moved)

    def test_spec_identity_strips_only_topology(self):
        spec = BenchmarkSpec(scale=8, jobs=3, pool="threads", batch_size=2)
        identity = spec_identity(spec)
        assert "jobs" not in identity
        assert "pool" not in identity
        assert "batch_size" not in identity
        assert identity["scale"] == 8


class TestCellIndex:
    def test_round_trip_and_reload(self, tmp_path):
        path = tmp_path / "cell_index.jsonl"
        with CellIndex(path) as index:
            index.add("d1", "run-a", CELL)
            index.add("d2", "run-b", ("kron", "baseline", "cc", "gap"))
            assert index.run_id_for("d1") == "run-a"
            assert "d2" in index
            assert len(index) == 2
        with CellIndex(path) as reloaded:
            assert reloaded.run_id_for("d1") == "run-a"
            assert reloaded.get("d2")["cell"] == ["kron", "baseline", "cc", "gap"]

    def test_header_carries_schema_version(self, tmp_path):
        path = tmp_path / "cell_index.jsonl"
        with CellIndex(path) as index:
            index.add("d1", "run-a", CELL)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["cell_index_version"] == CELL_INDEX_VERSION
        # The header line is checksummed like every other record.
        from repro.durable import verify_line

        assert "crc" in first and verify_line(first)

    def test_add_is_idempotent(self, tmp_path):
        path = tmp_path / "cell_index.jsonl"
        with CellIndex(path) as index:
            index.add("d1", "run-a", CELL)
            before = path.stat().st_size
            index.add("d1", "run-a", CELL)
            assert path.stat().st_size == before

    def test_remap_appends_and_latest_wins(self, tmp_path):
        path = tmp_path / "cell_index.jsonl"
        with CellIndex(path) as index:
            index.add("d1", "run-a", CELL)
            index.add("d1", "run-b", CELL)
            assert index.run_id_for("d1") == "run-b"
        with CellIndex(path) as reloaded:
            assert reloaded.run_id_for("d1") == "run-b"

    def test_torn_trailing_line_discarded(self, tmp_path):
        path = tmp_path / "cell_index.jsonl"
        with CellIndex(path) as index:
            index.add("d1", "run-a", CELL)
        with open(path, "ab") as stream:
            stream.write(b'{"digest": "d2", "run_id": "run')  # no newline
        with CellIndex(path) as reloaded:
            assert reloaded.run_id_for("d1") == "run-a"
            assert "d2" not in reloaded

    def test_corrupt_interior_line_is_an_error(self, tmp_path):
        path = tmp_path / "cell_index.jsonl"
        with CellIndex(path) as index:
            index.add("d1", "run-a", CELL)
            # A second entry keeps the corrupted line *interior*: later
            # appends succeeded after it, so it is corruption, not a torn
            # tail.
            index.add("d2", "run-b", ("kron", "baseline", "cc", "gap"))
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"digest"', b'"digest', 1))
        with pytest.raises(ArchiveError, match="rebuild"):
            CellIndex(path)

    def test_corrupt_final_line_discarded_like_torn_tail(self, tmp_path):
        path = tmp_path / "cell_index.jsonl"
        with CellIndex(path) as index:
            index.add("d1", "run-a", CELL)
            index.add("d2", "run-b", ("kron", "baseline", "cc", "gap"))
        raw = path.read_bytes()
        # Flip one byte inside the *last* line's payload: the record was
        # flushed but its checksum no longer matches — the writer died
        # between payload and fsync, so the entry was never promised.
        lines = raw.rstrip(b"\n").split(b"\n")
        lines[-1] = lines[-1].replace(b"run-b", b"run-X")
        path.write_bytes(b"\n".join(lines) + b"\n")
        with CellIndex(path) as reloaded:
            assert reloaded.run_id_for("d1") == "run-a"
            assert "d2" not in reloaded

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "cell_index.jsonl"
        from repro.durable import seal_line

        path.write_text(json.dumps(seal_line({"cell_index_version": 999})) + "\n")
        with pytest.raises(ArchiveError, match="version"):
            CellIndex(path)

    def test_add_many_batches_in_one_append(self, tmp_path):
        path = tmp_path / "cell_index.jsonl"
        with CellIndex(path) as index:
            count = index.add_many(
                [
                    ("d1", "run-a", CELL),
                    ("d2", "run-a", ("kron", "baseline", "cc", "gap")),
                    ("d1", "run-a", CELL),  # duplicate within the batch
                ]
            )
        assert count == 2

    def test_rebuild_from_archive(self, tmp_path):
        archive = RunArchive(tmp_path)
        spec = BenchmarkSpec(scale=8)
        results = ResultSet(
            [_result(), _result(kernel="cc")],
            meta={"environment": fingerprint()},
        )
        record = archive.archive_run(results, spec=spec)
        index = CellIndex.for_archive(archive)
        indexed = index.rebuild_from_archive(archive)
        assert indexed == 2
        digest = cell_digest(spec, CELL)
        assert index.run_id_for(digest) == record.run_id
        index.close()

    def test_rebuild_skips_runs_without_spec(self, tmp_path):
        archive = RunArchive(tmp_path)
        archive.archive_run(ResultSet([_result()]))  # no spec
        index = CellIndex.for_archive(archive)
        assert index.rebuild_from_archive(archive) == 0
        index.close()


class TestDeriveSkipsFailedCells:
    def test_rebuild_indexes_only_ok_cells(self, tmp_path):
        # The service only indexes and serves *ok* cells; a rebuild that
        # resurrected error/timeout cells would promise hits the server
        # must then refuse (and re-execute as a surprise miss).
        archive = RunArchive(tmp_path)
        spec = BenchmarkSpec(scale=8)
        results = ResultSet(
            [
                _result(),
                _result(kernel="cc", status="error"),
                _result(kernel="pr", status="timeout"),
            ],
            meta={"environment": fingerprint()},
        )
        record = archive.archive_run(results, spec=spec)
        with CellIndex.for_archive(archive) as index:
            assert index.rebuild_from_archive(archive) == 1
            assert index.run_id_for(cell_digest(spec, CELL)) == record.run_id
            for kernel in ("cc", "pr"):
                bad = ("kron", "baseline", kernel, "gap")
                assert cell_digest(spec, bad) not in index


class TestConcurrentWriterTornTail:
    """Two writer processes in turn, the first killed mid-line.

    Writer A's append tears (power loss mid-write: a prefix lands, the
    newline never does).  Writer B then opens the same file: its load
    drops A's torn tail, and its first append *cuts* the fragment from
    the file before writing — so B's lines land intact after the last
    acknowledged entry instead of fusing with A's prefix into a garbled
    interior line.  (Quarantine-and-rebuild of an index with genuine
    interior damage is pinned by
    ``test_integrity.py::TestSelfHealingOpen``.)
    """

    def _writer(self, tmp_path, body, faults=None):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {k: v for k, v in os.environ.items() if k != "REPRO_FAULTS"}
        env["PYTHONPATH"] = src
        if faults is not None:
            env["REPRO_FAULTS"] = faults
        prelude = (
            "from repro.store.cellindex import CellIndex\n"
            f"index = CellIndex({str(str(tmp_path / 'cell_index.jsonl'))!r})\n"
        )
        return subprocess.run(
            [sys.executable, "-c", prelude + body],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_second_writer_appends_after_the_cut(self, tmp_path):
        from repro.store.integrity import open_self_healing_index, quarantine_count

        archive = RunArchive(tmp_path)
        spec = BenchmarkSpec(scale=8)
        results = ResultSet(
            [_result(), _result(kernel="cc")],
            meta={"environment": fingerprint()},
        )
        record = archive.archive_run(results, spec=spec)
        with CellIndex.for_archive(archive) as index:
            index.rebuild_from_archive(archive)
        path = tmp_path / "cell_index.jsonl"
        clean = path.read_bytes()

        # Writer A: the very first append in its process tears.
        proc_a = self._writer(
            tmp_path,
            "try:\n"
            "    index.add('a' * 12, 'run-a', ('g', 'm', 'k', 'f'))\n"
            "except OSError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n",
            faults='[{"kind": "torn-write", "path": "cell_index"}]',
        )
        assert proc_a.returncode == 0, proc_a.stderr
        raw = path.read_bytes()
        assert len(raw) > len(clean)  # a prefix landed...
        assert not raw.endswith(b"\n")  # ...but the newline never did

        # Writer B: loads fine (torn tail dropped) and keeps appending —
        # after cutting A's fragment, not at the physical EOF.
        proc_b = self._writer(
            tmp_path,
            "index.add('b' * 12, 'run-b', ('g', 'm', 'k', 'f'))\n"
            "index.add('c' * 12, 'run-c', ('g', 'm', 'k', 'f'))\n"
            "index.close()\n",
        )
        assert proc_b.returncode == 0, proc_b.stderr
        raw = path.read_bytes()
        assert raw.startswith(clean) and raw.count(b"\n") == clean.count(b"\n") + 2

        # Every acknowledged entry loads; nothing needs healing.
        index, heal = open_self_healing_index(archive)
        try:
            assert heal is None
            assert quarantine_count(archive.root) == 0
            assert index.run_id_for(cell_digest(spec, CELL)) == record.run_id
            assert index.run_id_for("b" * 12) == "run-b"
            assert index.run_id_for("c" * 12) == "run-c"
            assert "a" * 12 not in index
        finally:
            index.close()


class TestCellIdentity:
    """``CellIdentity`` is the one recipe: it must equal the three-function
    spelling the frozen benchmark suite still imports, from whichever of a
    live request, a journal header or an archive manifest it is built."""

    @pytest.fixture()
    def ref(self, tmp_path):
        path = tmp_path / "demo.mtx"
        shutil.copy(Path(__file__).parent / "fixtures" / "demo.mtx", path)
        return f"file:{path}"

    def test_digest_equals_the_three_function_spelling(self, ref):
        spec = BenchmarkSpec(scale=8)
        _, datasets = graph_identities(["kron", ref])
        identity = CellIdentity(spec, datasets=datasets)
        hasher = identity_hasher(spec)
        for key in (CELL, (ref, "baseline", "bfs", "gap")):
            assert identity.digest(key) == cell_digest(
                None, normalize_cell_key(key, datasets), hasher=hasher
            )
        # The file-backed key is identified by content, not by path.
        assert identity.digest((ref, "baseline", "bfs", "gap")) != CellIdentity(
            spec
        ).digest((ref, "baseline", "bfs", "gap"))
        assert CellIdentity(spec, datasets={}).datasets is None

    def test_recorded_is_none_without_a_spec(self):
        assert CellIdentity.recorded({}) is None
        assert CellIdentity.recorded({"spec": None, "environment": {}}) is None
        assert CellIdentity.recorded({"spec": "scale=8"}) is None

    def test_request_journal_and_manifest_agree(self, ref, tmp_path):
        """One measurement, three records of what it was: the digest a
        submission computes is the one recovery derives from the journal
        header and the one an index rebuild derives from the manifest —
        under a topology and a file-backed graph that each could split."""
        spec = BenchmarkSpec(scale=8, jobs=4, pool="threads", batch_size=7)
        _, datasets = graph_identities([ref])
        key = (ref, "baseline", "bfs", "gap")
        live = CellIdentity(spec, datasets=datasets).digest(key)

        path = tmp_path / "job.jsonl"
        CheckpointJournal.create(
            path,
            campaign_fingerprint(
                spec, [ref], ["bfs"], ["baseline"], ["gap"], datasets=datasets
            ),
        ).close()
        header, _ = read_journal(path)
        assert set(header["spec"]) == set(spec_identity(spec))
        assert CellIdentity.recorded(header).digest(key) == live

        archive = RunArchive(tmp_path / "archive")
        record = archive.archive_run(
            ResultSet(
                [_result(graph=ref)],
                meta={"environment": fingerprint(), "datasets": datasets},
            ),
            spec=spec,
        )
        assert CellIdentity.recorded(record.manifest).digest(key) == live
        assert list(derive_index_entries(archive)) == [(live, record.run_id, key)]
