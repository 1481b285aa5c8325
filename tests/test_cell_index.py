"""Cell identity and the digest → run map the archive derives."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.core.results import ResultSet, RunResult
from repro.core.spec import BenchmarkSpec
from repro.durable import AppendLog
from repro.frameworks import Mode
from repro.graphs.datasets import graph_identities
from repro.resilience.journal import (
    CheckpointJournal,
    campaign_fingerprint,
    read_journal,
)
from repro.store import RunArchive
from repro.store.cellindex import (
    CellIdentity,
    cell_digest,
    comparable_environment,
    derive_index_entries,
    identity_hasher,
    normalize_cell_key,
    spec_identity,
)
from repro.store.environment import COMPARABILITY_KEYS, fingerprint

CELL = ("kron", "baseline", "bfs", "gap")
HEADER = {"log_version": 1}


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


class TestDeriveIndexEntries:
    def test_every_ok_cell_of_every_run(self, tmp_path):
        archive = RunArchive(tmp_path)
        spec = BenchmarkSpec(scale=8)
        record = archive.archive_run(
            ResultSet([_result(), _result(kernel="cc")]), spec=spec
        )
        cc = ("kron", "baseline", "cc", "gap")
        assert list(derive_index_entries(archive)) == [
            (cell_digest(spec, CELL), record.run_id),
            (cell_digest(spec, cc), record.run_id),
        ]

    def test_runs_without_spec_derive_nothing(self, tmp_path):
        archive = RunArchive(tmp_path)
        archive.archive_run(ResultSet([_result()]))  # no spec
        assert list(derive_index_entries(archive)) == []

    def test_a_cell_in_two_runs_maps_to_the_newer(self, tmp_path, monkeypatch):
        from repro.store import archive as archive_mod

        archive = RunArchive(tmp_path)
        spec = BenchmarkSpec(scale=8)
        runs = []
        for year, results in (
            ("2020", ResultSet([_result()])),
            ("2021", ResultSet([_result(), _result(kernel="cc")])),
        ):
            stamp = f"{year}-01-01T00:00:00Z"
            monkeypatch.setattr(archive_mod, "_utc_timestamp", lambda: stamp)
            runs.append(archive.archive_run(results, spec=spec).run_id)
        older, newer = runs
        assert older != newer
        assert dict(derive_index_entries(archive))[cell_digest(spec, CELL)] == newer


class TestDeriveSkipsFailedCells:
    def test_rebuild_indexes_only_ok_cells(self, tmp_path):
        # The service only maps and serves *ok* cells; deriving
        # error/timeout cells would promise hits the server must then
        # refuse (and re-execute as a surprise miss).
        archive = RunArchive(tmp_path)
        spec = BenchmarkSpec(scale=8)
        record = archive.archive_run(
            ResultSet(
                [
                    _result(),
                    _result(kernel="cc", status="error"),
                    _result(kernel="pr", status="timeout"),
                ]
            ),
            spec=spec,
        )
        assert list(derive_index_entries(archive)) == [
            (cell_digest(spec, CELL), record.run_id)
        ]


class TestConcurrentWriterTornTail:
    """Two writer processes in turn on one sealed log (the checkpoint
    journal's :class:`~repro.durable.AppendLog`), the first killed
    mid-line.

    Writer A's append tears (power loss mid-write: a prefix lands, the
    newline never does).  Writer B then opens the same file: its load
    drops A's torn tail, and its first append *cuts* the fragment from
    the file before writing — so B's lines land intact after the last
    acknowledged record instead of fusing with A's prefix into a garbled
    interior line.  (A log with genuine interior damage is refused:
    ``test_durable.py::TestAppendLog``.)
    """

    def _writer(self, path, body, faults=None):
        import os
        import subprocess
        import sys

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {k: v for k, v in os.environ.items() if k != "REPRO_FAULTS"}
        env["PYTHONPATH"] = src
        if faults is not None:
            env["REPRO_FAULTS"] = faults
        prelude = (
            "from repro.durable import AppendLog\n"
            f"log, _ = AppendLog.open({str(path)!r}, {HEADER!r})\n"
        )
        return subprocess.run(
            [sys.executable, "-c", prelude + body],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_second_writer_appends_after_the_cut(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = AppendLog.create(path, HEADER)
        log.append([{"n": 0}, {"n": 1}])
        log.close()
        clean = path.read_bytes()

        # Writer A: the very first append in its process tears.
        proc_a = self._writer(
            path,
            "try:\n"
            "    log.append([{'n': 'a'}])\n"
            "except OSError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n",
            faults='[{"kind": "torn-write", "path": "log.jsonl"}]',
        )
        assert proc_a.returncode == 0, proc_a.stderr
        raw = path.read_bytes()
        assert len(raw) > len(clean)  # a prefix landed...
        assert not raw.endswith(b"\n")  # ...but the newline never did

        # Writer B: loads fine (torn tail dropped) and keeps appending —
        # after cutting A's fragment, not at the physical EOF.
        proc_b = self._writer(
            path,
            "log.append([{'n': 'b'}])\n"
            "log.append([{'n': 'c'}])\n"
            "log.close()\n",
        )
        assert proc_b.returncode == 0, proc_b.stderr
        raw = path.read_bytes()
        assert raw.startswith(clean) and raw.count(b"\n") == clean.count(b"\n") + 2

        # Every acknowledged record reads back; the log has no damage.
        records = AppendLog.read(path)
        assert [r.get("n") for r in records] == [None, 0, 1, "b", "c"]


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
        header and the one a server's map derives from the manifest —
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
        assert list(derive_index_entries(archive)) == [(live, record.run_id)]
