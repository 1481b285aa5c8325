"""Tests for storage integrity: checksums, verify, quarantine, scrub."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.results import ResultSet, RunResult
from repro.core.spec import BenchmarkSpec
from repro.durable import line_crc, seal_line, verify_line
from repro.frameworks import Mode
from repro.store import RunArchive
from repro.store.cellindex import derive_index_entries
from repro.store.environment import fingerprint
from repro.store.integrity import (
    ScrubReport,
    last_scrub_report,
    quarantine_count,
    quarantine_run,
    scrub,
    verify_run,
)

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


def _seeded_archive(root: Path, kernels=("bfs", "cc")):
    """An archive holding one run with the given kernels; returns
    ``(archive, spec, record)``."""
    archive = RunArchive(root)
    spec = BenchmarkSpec(scale=8)
    results = ResultSet(
        [_result(kernel=k) for k in kernels],
        meta={"environment": fingerprint()},
    )
    record = archive.archive_run(results, spec=spec)
    return archive, spec, record


class TestLineChecksums:
    def test_seal_verify_round_trip(self):
        record = {"digest": "d1", "run_id": "run-a", "cell": list(CELL)}
        sealed = seal_line(record)
        assert verify_line(sealed)
        # Round trip through the exact on-disk serialization.
        reparsed = json.loads(json.dumps(sealed, default=str))
        assert verify_line(reparsed)

    def test_tamper_detected(self):
        sealed = seal_line({"digest": "d1", "run_id": "run-a"})
        sealed["run_id"] = "run-b"
        assert not verify_line(sealed)

    def test_lines_without_crc_rejected(self):
        # Every writer since the crc scheme seals its lines; an unsealed
        # line is damage (or a foreign file), not a legacy format.
        assert not verify_line({"digest": "d1", "run_id": "run-a"})

    def test_crc_field_order_insensitive(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert line_crc(a) == line_crc(b)

    def test_stringified_values_hash_stably(self):
        # default=str values (a Path) must hash the same before
        # serialization and after the round trip re-parse.
        sealed = seal_line({"path": Path("/tmp/x"), "n": 1})
        reparsed = json.loads(json.dumps(sealed, default=str))
        assert verify_line(reparsed)


class TestVerifyRun:
    def test_archived_run_verifies_clean(self, tmp_path):
        _, _, record = _seeded_archive(tmp_path)
        assert verify_run(record.path) == []

    def test_manifest_records_integrity_digests(self, tmp_path):
        _, _, record = _seeded_archive(tmp_path)
        integrity = record.manifest.get("integrity")
        assert isinstance(integrity, dict)
        assert "results.json" in integrity

    def test_bit_flip_in_results_detected(self, tmp_path):
        _, _, record = _seeded_archive(tmp_path)
        results = record.path / "results.json"
        raw = bytearray(results.read_bytes())
        raw[len(raw) // 2] ^= 0x20
        results.write_bytes(bytes(raw))
        problems = verify_run(record.path)
        assert any("digest mismatch" in p for p in problems)

    def test_unreadable_manifest_reported(self, tmp_path):
        _, _, record = _seeded_archive(tmp_path)
        (record.path / "manifest.json").write_text("{ not json")
        problems = verify_run(record.path)
        assert problems and "manifest unreadable" in problems[0]

    def test_run_id_mismatch_reported(self, tmp_path):
        _, _, record = _seeded_archive(tmp_path)
        manifest = json.loads((record.path / "manifest.json").read_text())
        manifest["run_id"] = "somebody-else"
        (record.path / "manifest.json").write_text(json.dumps(manifest))
        problems = verify_run(record.path)
        assert any("does not match directory" in p for p in problems)


class TestQuarantine:
    def test_quarantine_moves_and_counts(self, tmp_path):
        archive, _, record = _seeded_archive(tmp_path)
        assert quarantine_count(archive.root) == 0
        target = quarantine_run(archive, record.run_id)
        assert not record.path.exists()
        assert target.is_dir()
        assert quarantine_count(archive.root) == 1

    def test_quarantine_targets_never_collide(self, tmp_path):
        archive, _, record = _seeded_archive(tmp_path)
        first = quarantine_run(archive, record.run_id)
        # A fresh run under the same id (re-archived identical payload).
        record.path.mkdir(parents=True)
        (record.path / "manifest.json").write_text("{}")
        second = quarantine_run(archive, record.run_id)
        assert first != second
        assert quarantine_count(archive.root) == 2


class TestScrub:
    def test_clean_archive_clean_verdict(self, tmp_path):
        archive, spec, record = _seeded_archive(tmp_path)
        report = scrub(archive)
        assert report.verdict == "clean"
        assert report.checked_runs == 1
        assert not report.quarantined
        # The verdict is persisted for /health and the status CLI.
        persisted = last_scrub_report(archive.root)
        assert persisted["verdict"] == "clean"

    def test_damaged_run_quarantined_and_healed(self, tmp_path):
        archive, spec, record = _seeded_archive(tmp_path)
        results = record.path / "results.json"
        raw = bytearray(results.read_bytes())
        raw[len(raw) // 2] ^= 0x20
        results.write_bytes(bytes(raw))

        report = scrub(archive)
        assert report.verdict == "healed"
        assert report.quarantined[0]["run_id"] == record.run_id
        assert not record.path.exists()
        assert quarantine_count(archive.root) >= 1
        # The run is gone, so no server derives a cell from it.
        assert list(derive_index_entries(archive)) == []
        # Healing converges: a second pass finds nothing.
        assert scrub(RunArchive(tmp_path)).verdict == "clean"

    def test_quarantine_disabled_reports_failed(self, tmp_path):
        archive, _, record = _seeded_archive(tmp_path)
        (record.path / "manifest.json").write_text("{ not json")
        report = scrub(archive, quarantine=False)
        assert report.verdict == "failed"
        assert record.path.exists()  # nothing moved
        assert report.unresolved

    def test_verdict_precedence(self):
        report = ScrubReport(archive_root="x", started_at="t")
        assert report.verdict == "clean"
        report.quarantined.append({"run_id": "r", "problems": ["damaged"]})
        assert report.verdict == "healed"
        report.unresolved.append("boom")
        assert report.verdict == "failed"
