"""Tests for the run archive, environment fingerprint, and results schema."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.results import RESULTS_SCHEMA_VERSION, ResultSet, RunResult
from repro.core.telemetry import Span
from repro.errors import ArchiveError, ReproError
from repro.frameworks import Mode
from repro.store import RunArchive, fingerprint, version_string
from repro.store.environment import fingerprint_mismatches


def _result(kernel="bfs", trials=(1.0, 1.1), status="ok"):
    return RunResult(
        framework="gap",
        kernel=kernel,
        graph="kron",
        mode=Mode.BASELINE,
        trial_seconds=list(trials),
        status=status,
    )


def _results(*cells, meta=None):
    return ResultSet(list(cells), meta=meta)


class TestResultsSchema:
    def test_save_json_stamps_schema_version(self, tmp_path):
        path = tmp_path / "r.json"
        _results(_result()).save_json(path)
        raw = json.loads(path.read_text())
        assert raw["schema_version"] == RESULTS_SCHEMA_VERSION
        assert raw["results"][0]["trial_seconds"] == [1.0, 1.1]

    def test_meta_round_trips(self, tmp_path):
        path = tmp_path / "r.json"
        _results(_result(), meta={"spec": {"scale": 9}}).save_json(path)
        loaded = ResultSet.load_json(path)
        assert loaded.meta["spec"]["scale"] == 9

    def test_bare_list_payload_is_rejected(self, tmp_path):
        # Schema v1 (a bare list of cell records) is no longer read, and
        # any other non-envelope JSON gets the same clear refusal.
        path = tmp_path / "legacy.json"
        for payload in ([_result().as_dict()], {"cells": []}, 7):
            path.write_text(json.dumps(payload), encoding="ascii")
            with pytest.raises(ReproError, match="schema-v2 results file"):
                ResultSet.load_json(path)

    def test_save_is_atomic_no_tmp_residue(self, tmp_path):
        path = tmp_path / "r.json"
        _results(_result()).save_json(path)
        _results(_result(), _result(kernel="cc")).save_json(path)
        assert len(ResultSet.load_json(path)) == 2
        residue = [p for p in tmp_path.iterdir() if p.name != "r.json"]
        assert residue == []

    def test_committed_legacy_results_file_loads(self):
        # The pre-gate campaign artifact in results/ (written as a v1 bare
        # list, re-saved once as v2): the full Tables IV/V matrix.
        legacy = Path(__file__).resolve().parents[1] / "results" / "full_scale13.json"
        assert len(ResultSet.load_json(legacy)) == 360


class TestEnvironment:
    def test_fingerprint_keys(self):
        env = fingerprint()
        for key in ("python", "numpy", "machine", "cpu_count", "repro_version"):
            assert env[key] is not None

    def test_version_string_contains_package_version(self):
        from repro import __version__

        assert version_string().startswith(__version__)

    def test_git_sha_env_override(self, monkeypatch):
        from repro.store.environment import git_sha

        monkeypatch.setenv("REPRO_GIT_SHA", "deadbeefcafe0123")
        assert git_sha() == "deadbeefcafe"

    def test_mismatch_detection(self):
        a = fingerprint()
        b = dict(a, numpy="0.0.1")
        assert fingerprint_mismatches(a, b) == ["numpy"]
        assert fingerprint_mismatches(a, dict(a)) == []
        assert fingerprint_mismatches(None, a) == []


class TestRunArchive:
    def test_archive_run_layout(self, tmp_path):
        store = RunArchive(tmp_path / "arch")
        span = Span(name="cell", attributes={"kernel": "bfs"})
        record = store.archive_run(
            _results(_result()),
            spec={"scale": 9},
            spans=[span],
            source="test",
        )
        assert (record.path / "results.json").exists()
        assert (record.path / "manifest.json").exists()
        assert (record.path / "spans.jsonl").exists()
        manifest = record.manifest
        assert manifest["run_id"] == record.run_id
        assert manifest["spec"] == {"scale": 9}
        assert manifest["cells"] == 1
        assert manifest["environment"]["python"]
        assert manifest["version"] == version_string()

    def test_per_trial_times_survive_archival(self, tmp_path):
        store = RunArchive(tmp_path)
        trials = [0.5, 0.25, 0.75]
        record = store.archive_run(_results(_result(trials=trials)))
        loaded = record.load_results()
        assert loaded.results[0].trial_seconds == trials

    def test_content_addressed_and_idempotent(self, tmp_path):
        store = RunArchive(tmp_path)
        results = _results(_result())
        first = store.archive_run(results, spec={"scale": 9})
        again = store.archive_run(results, spec={"scale": 9})
        assert first.run_id == again.run_id
        assert len(store.list_runs()) == 1

    def test_different_content_gets_different_ids(self, tmp_path):
        store = RunArchive(tmp_path)
        a = store.archive_run(_results(_result(trials=(1.0,))))
        b = store.archive_run(_results(_result(trials=(2.0,))))
        assert a.run_id != b.run_id
        assert len(store.list_runs()) == 2

    def test_history_lists_two_runs_of_the_same_spec(self, tmp_path):
        store = RunArchive(tmp_path)
        store.archive_run(_results(_result(trials=(1.0,))), spec={"scale": 9})
        store.archive_run(_results(_result(trials=(1.01,))), spec={"scale": 9})
        entries = store.list_runs()
        assert len(entries) == 2
        assert all(entry["cells"] == 1 for entry in entries)

    def test_lookup_latest_and_prefix(self, tmp_path):
        store = RunArchive(tmp_path)
        a = store.archive_run(_results(_result(trials=(1.0,))))
        b = store.archive_run(_results(_result(trials=(2.0,))))
        assert store.lookup("latest").run_id == b.run_id
        assert store.lookup(a.run_id[:6]).run_id == a.run_id

    def test_lookup_errors(self, tmp_path):
        store = RunArchive(tmp_path)
        with pytest.raises(ArchiveError):
            store.lookup("latest")  # empty archive
        store.archive_run(_results(_result(trials=(1.0,))))
        with pytest.raises(ArchiveError):
            store.lookup("zzzzzz")

    def test_ambiguous_prefix_rejected(self, tmp_path):
        store = RunArchive(tmp_path)
        ids = set()
        for n in range(8):
            rec = store.archive_run(_results(_result(trials=(float(n + 1),))))
            ids.add(rec.run_id)
        common = ""  # find a prefix shared by >= 2 ids, if any
        for length in range(1, 12):
            prefixes = {}
            for run_id in ids:
                prefixes.setdefault(run_id[:length], []).append(run_id)
            shared = [p for p, rs in prefixes.items() if len(rs) > 1]
            if shared:
                common = shared[0]
                break
        if not common:
            pytest.skip("no shared prefix among sampled run ids")
        with pytest.raises(ArchiveError):
            store.lookup(common)

    def test_index_rebuilt_from_manifests_when_lost(self, tmp_path):
        store = RunArchive(tmp_path)
        record = store.archive_run(_results(_result()))
        store.index_path.unlink()
        entries = store.list_runs()
        assert [entry["run_id"] for entry in entries] == [record.run_id]
        assert store.lookup("latest").run_id == record.run_id

    def test_spans_persisted_and_reloadable(self, tmp_path):
        store = RunArchive(tmp_path)
        spans = [
            Span(name="cell", attributes={"kernel": "bfs"}, wall_seconds=0.5),
            Span(name="cell", attributes={"kernel": "cc"}, wall_seconds=0.25),
        ]
        record = store.archive_run(_results(_result()), spans=spans)
        loaded = record.load_spans()
        assert [rec["kernel"] for rec in loaded] == ["bfs", "cc"]
        # The persisted records are Span.from_dict-compatible.
        rebuilt = Span.from_dict(loaded[0])
        assert rebuilt.name == "cell"
        assert rebuilt.wall_seconds == 0.5

    def test_telemetry_records_match_sink_output(self):
        from repro.core.telemetry import Telemetry

        telemetry = Telemetry()
        with telemetry.span("cell", kernel="bfs"):
            pass
        records = telemetry.records()
        assert len(records) == 1
        assert records[0]["span"] == "cell"
        assert records[0]["kernel"] == "bfs"

    def test_failure_counts_in_manifest(self, tmp_path):
        store = RunArchive(tmp_path)
        record = store.archive_run(
            _results(_result(), _result(kernel="cc", trials=(), status="error"))
        )
        assert record.manifest["cells"] == 2
        assert record.manifest["failures"] == 1


class TestResolve:
    def test_ambiguous_error_lists_all_matches(self, tmp_path):
        store = RunArchive(tmp_path)
        ids = sorted(
            store.archive_run(_results(_result(trials=(float(n + 1),)))).run_id
            for n in range(16)
        )
        # The empty prefix matches everything, so the ambiguity path is
        # exercised deterministically with single-character prefixes.
        prefixes = {}
        for run_id in ids:
            prefixes.setdefault(run_id[0], []).append(run_id)
        shared = next((p for p, rs in prefixes.items() if len(rs) > 1), None)
        if shared is None:
            pytest.skip("no shared one-char prefix among sampled run ids")
        expected = sorted(prefixes[shared])
        with pytest.raises(ArchiveError) as excinfo:
            store.resolve(shared)
        message = str(excinfo.value)
        assert f"matches {len(expected)} runs" in message
        for run_id in expected:
            assert run_id in message
        assert "add more digits" in message

    def test_exact_run_id_wins_over_prefix_ambiguity(self, tmp_path):
        store = RunArchive(tmp_path)
        record = store.archive_run(_results(_result()))
        # An exact id resolves even if it is also a prefix of itself.
        assert store.resolve(record.run_id) == record.run_id

    def test_exact_run_id_never_reads_the_listing(self, tmp_path, monkeypatch):
        """A cold hit looks one run up by its full id, under the service's
        lock: that must not cost a parse of every run's index entry."""
        store = RunArchive(tmp_path)
        record = store.archive_run(_results(_result()))

        def listing_read():
            raise AssertionError("index.json was read for an exact run id")

        monkeypatch.setattr(store, "_read_index", listing_read)
        assert store.resolve(record.run_id) == record.run_id
        assert store.lookup(record.run_id).run_id == record.run_id
        with pytest.raises(AssertionError):  # a prefix still needs the listing
            store.resolve(record.run_id[:8])

    def test_resolve_falls_back_to_directory_scan(self, tmp_path):
        store = RunArchive(tmp_path)
        record = store.archive_run(_results(_result()))
        store.index_path.unlink()  # stale/lost index must not hide runs
        assert store.resolve(record.run_id[:8]) == record.run_id

    def test_resolve_empty_archive_message(self, tmp_path):
        store = RunArchive(tmp_path)
        with pytest.raises(ArchiveError) as excinfo:
            store.resolve("abc123")
        assert "no runs" in str(excinfo.value)

    def test_resolve_no_match_message(self, tmp_path):
        store = RunArchive(tmp_path)
        store.archive_run(_results(_result()))
        with pytest.raises(ArchiveError) as excinfo:
            store.resolve("zzzzzz")
        assert "zzzzzz" in str(excinfo.value)


def _archive_worker(root, barrier_token, queue):
    """Worker for the concurrent-archival race: everyone archives the
    same content simultaneously and reports the run id it observed."""
    try:
        store = RunArchive(root)
        results = ResultSet(
            [
                RunResult(
                    framework="gap",
                    kernel="bfs",
                    graph="kron",
                    mode=Mode.BASELINE,
                    trial_seconds=[1.0, 1.1],
                    status="ok",
                )
            ]
        )
        record = store.archive_run(results, source=f"racer-{barrier_token}")
        queue.put(("ok", record.run_id))
    except Exception as exc:  # pragma: no cover - failure reporting
        queue.put(("error", f"{type(exc).__name__}: {exc}"))


class TestConcurrentArchival:
    def test_two_processes_racing_same_run_id(self, tmp_path):
        """Two processes archiving identical content at once must both
        succeed with the same run id and leave index.json parseable."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        queue = ctx.SimpleQueue()
        workers = [
            ctx.Process(target=_archive_worker, args=(str(tmp_path), n, queue))
            for n in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30.0)
            assert worker.exitcode == 0
        outcomes = [queue.get() for _ in workers]
        statuses = {status for status, _ in outcomes}
        assert statuses == {"ok"}, outcomes
        run_ids = {run_id for _, run_id in outcomes}
        assert len(run_ids) == 1, "identical content must share one run id"

        store = RunArchive(tmp_path)
        payload = json.loads(store.index_path.read_text())
        entries = [e for e in payload["runs"] if e["run_id"] in run_ids]
        assert len(entries) == 1, "index must not duplicate the run"
        record = store.lookup(next(iter(run_ids)))
        assert len(record.load_results()) == 1
