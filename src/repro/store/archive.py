"""Append-only, content-addressed archive of benchmark runs.

The GAP rules prescribe *durable* results — fixed trial counts,
per-kernel summary statistics, reproducible specs — yet a campaign that
only writes ``results.json`` in place throws its history away: the next
run overwrites it and no regression is ever detectable.  This archive
keeps every campaign:

* one directory per run under ``<root>/runs/<run_id>/`` holding the full
  results payload (**per-trial** times, never just aggregates), the spec
  that produced it, the telemetry spans (``spans.jsonl``), and a manifest
  with an :func:`~repro.store.environment.fingerprint` of the machine;
* ``run_id`` is content-addressed — a SHA-256 digest of the canonical
  (results, spec) JSON — so re-archiving the same run is idempotent and
  an archived run can never be silently edited without changing identity;
* ``runs/`` is the one record of what is archived: ``repro history``,
  ``latest`` and prefix lookup enumerate the run directories
  (:meth:`RunArchive.run_dirs`) instead of a second listing that could
  disagree with them.

Every file is written with :func:`repro.durable.atomic_write`, and a run
directory is staged under a temporary name and renamed into place, so a
crashed archive operation leaves either a complete run or no run — never
a torn one — and the rename alone is what makes a run listed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from ..core.results import ResultSet
from ..core.telemetry import Span
from ..durable import atomic_write
from ..errors import ArchiveError
from ..faults import shim_replace
from .environment import fingerprint, version_string

__all__ = [
    "ARCHIVE_SCHEMA_VERSION",
    "RunArchive",
    "RunRecord",
    "bench_payload",
    "canonical_json",
    "default_archive_dir",
    "write_json_atomic",
]

ARCHIVE_SCHEMA_VERSION = 1

#: Environment variable overriding the default archive location.
ARCHIVE_DIR_ENV = "REPRO_ARCHIVE_DIR"


def default_archive_dir() -> Path:
    """The archive root: ``$REPRO_ARCHIVE_DIR`` or ``results/archive``."""
    env = os.environ.get(ARCHIVE_DIR_ENV)
    if env:
        return Path(env)
    return Path("results") / "archive"


#: Built once: ``json.dumps`` with non-default arguments constructs an
#: encoder per call, and the service takes one digest per cell per
#: submission through this.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(payload: object) -> str:
    """Deterministic JSON text (sorted keys, no whitespace) for hashing."""
    return _CANONICAL.encode(payload)


def write_json_atomic(path: str | Path, payload: object, indent: int = 2) -> None:
    """Serialize ``payload`` and :func:`~repro.durable.atomic_write` it."""
    atomic_write(path, (json.dumps(payload, indent=indent) + "\n").encode())


def bench_payload(name: str, data: dict[str, object]) -> dict[str, object]:
    """Wrap one benchmark's summary in the shared archive schema.

    ``BENCH_*.json`` trajectory files and gate reports all share this
    envelope, so any consumer can read the environment and schema version
    the same way regardless of which bench produced the numbers.
    """
    return {
        "schema_version": ARCHIVE_SCHEMA_VERSION,
        "bench": name,
        "version": version_string(),
        "environment": fingerprint(),
        "data": data,
    }


def _utc_timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@dataclass(frozen=True)
class RunRecord:
    """Handle to one archived run."""

    run_id: str
    path: Path
    manifest: dict[str, object]

    @property
    def created_at(self) -> str:
        return str(self.manifest.get("created_at", ""))

    def load_results(self) -> ResultSet:
        """The run's full result set, per-trial times included."""
        return ResultSet.load_json(self.path / "results.json")

    def load_spans(self) -> list[dict[str, object]]:
        """The run's persisted telemetry records (empty if none traced)."""
        spans_path = self.path / "spans.jsonl"
        if not spans_path.exists():
            return []
        records = []
        with spans_path.open(encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        return records


class RunArchive:
    """Content-addressed store of campaign runs.

    A run exists once its staged directory is renamed into ``runs/``;
    every listing and lookup reads the run directories themselves, so
    two writers cannot lose each other's runs and a crash cannot leave
    a run archived but unlisted.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_archive_dir()

    @property
    def runs_dir(self) -> Path:
        return self.root / "runs"

    # -- store ----------------------------------------------------------

    def archive_run(
        self,
        results: ResultSet,
        spec: object = None,
        spans: Iterable[Span | dict[str, object]] | None = None,
        source: str | None = None,
    ) -> RunRecord:
        """Archive one campaign; returns the (possibly pre-existing) record.

        ``spec`` may be a :class:`~repro.core.spec.BenchmarkSpec`, a dict,
        or None; ``spans`` the run's telemetry spans (``Telemetry.spans``
        or their dict form); ``source`` a free-form provenance note (the
        CLI stores its argv).  Content addressing makes the call
        idempotent: archiving identical content returns the existing run.
        """
        spec_dict = spec.as_dict() if hasattr(spec, "as_dict") else spec
        payload = results.payload()
        run_id = hashlib.sha256(
            canonical_json({"results": payload, "spec": spec_dict}).encode()
        ).hexdigest()[:12]
        run_dir = self.runs_dir / run_id
        if (run_dir / "manifest.json").exists():
            return self._record(run_id)

        span_records = [
            span.as_dict() if isinstance(span, Span) else dict(span)
            for span in (spans or [])
        ]
        manifest: dict[str, object] = {
            "schema_version": ARCHIVE_SCHEMA_VERSION,
            "run_id": run_id,
            "created_at": _utc_timestamp(),
            "version": version_string(),
            "environment": fingerprint(),
            "spec": spec_dict,
            "source": source,
            "cells": len(results),
            "failures": len(results.failures()),
            "span_count": len(span_records),
        }
        # Resilience lineage: whether this campaign was resumed from a
        # checkpoint journal, retried cells, or skipped combos via the
        # circuit breaker — consumers comparing runs need to know that a
        # resumed campaign's cells span several process lifetimes.
        resilience = results.meta.get("resilience")
        if isinstance(resilience, dict):
            manifest["resilience"] = dict(resilience)
        # Dataset provenance: for file-backed graphs the manifest records
        # ref -> {path, digest, format, bytes}, so cell-index rebuilds and
        # the regression gate can identify cells by content digest long
        # after the original file moved or disappeared.
        datasets = results.meta.get("datasets")
        if isinstance(datasets, dict) and datasets:
            manifest["datasets"] = {
                ref: dict(entry) if isinstance(entry, dict) else entry
                for ref, entry in datasets.items()
            }

        # Stage the whole run directory, then rename into place: a crash
        # mid-archive leaves only a .tmp directory, never a partial run.
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        staging = Path(
            tempfile.mkdtemp(dir=self.runs_dir, prefix=f".{run_id}.tmp-")
        )
        try:
            results_bytes = (json.dumps(payload, indent=2) + "\n").encode()
            spans_bytes = b"".join(
                json.dumps(record, default=str).encode() + b"\n"
                for record in span_records
            )
            # Whole-run digests are computed from the *intended* bytes,
            # before any file I/O: a payload corrupted on the way to disk
            # (bit flip, partial page) shows up at scrub time as a
            # manifest/file mismatch rather than silently becoming truth.
            integrity = {"results.json": hashlib.sha256(results_bytes).hexdigest()}
            if span_records:
                integrity["spans.jsonl"] = hashlib.sha256(spans_bytes).hexdigest()
            manifest["integrity"] = integrity
            atomic_write(staging / "results.json", results_bytes)
            if span_records:
                atomic_write(staging / "spans.jsonl", spans_bytes)
            atomic_write(
                staging / "manifest.json",
                (json.dumps(manifest, indent=2) + "\n").encode(),
            )
            try:
                shim_replace(staging, run_dir)
            except OSError:
                if (run_dir / "manifest.json").exists():
                    # Concurrent archiver won the rename; same content.
                    return self._record(run_id)
                raise
        finally:
            if staging.exists():
                shutil.rmtree(staging, ignore_errors=True)
        return RunRecord(run_id=run_id, path=run_dir, manifest=manifest)

    # -- lookup ---------------------------------------------------------

    def run_dirs(self) -> list[Path]:
        """Every run directory, in name order: the archive's one
        enumeration of ``runs/``.

        ``.``-prefixed names are staging directories (a run is renamed
        out of one when it is complete) and are never runs.  A directory
        whose manifest is missing or unreadable is still listed here, so
        that ``scrub`` quarantines it; :meth:`runs` skips it.
        """
        if not self.runs_dir.is_dir():
            return []
        return sorted(
            path for path in self.runs_dir.iterdir() if not path.name.startswith(".")
        )

    def runs(self) -> list[RunRecord]:
        """Every run with a readable manifest, oldest first.

        Runs are ordered by their manifest's ``created_at`` and, within
        one second, by when the manifest was written (its
        ``st_mtime_ns``), so the last run archived is last.
        """
        dated = []
        for run_dir in self.run_dirs():
            try:
                record = self._record(run_dir.name)
                written = (run_dir / "manifest.json").stat().st_mtime_ns
            except (ArchiveError, OSError):
                continue
            dated.append(((record.created_at, written), record))
        dated.sort(key=lambda item: item[0])
        return [record for _, record in dated]

    def list_runs(self) -> list[dict[str, object]]:
        """One entry per run, newest first (``repro history`` order)."""
        return [
            {
                "run_id": record.run_id,
                "created_at": record.created_at,
                "cells": record.manifest.get("cells", 0),
                "failures": record.manifest.get("failures", 0),
                "source": record.manifest.get("source"),
            }
            for record in reversed(self.runs())
        ]

    def _record(self, run_id: str) -> RunRecord:
        run_dir = self.runs_dir / run_id
        try:
            manifest = json.loads(
                (run_dir / "manifest.json").read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError) as exc:
            raise ArchiveError(f"run {run_id} has no readable manifest") from exc
        return RunRecord(run_id=run_id, path=run_dir, manifest=manifest)

    def resolve(self, ref: str) -> str:
        """Resolve ``latest`` or a run-id prefix to a unique run id.

        ``latest`` is the last run archived (:meth:`runs` order).  An
        exact run id needs no enumeration — the service resolves one per
        cold hit while holding its lock — and a prefix is matched against
        the run directories' names, reading no manifest.  An ambiguous
        prefix always fails the same way: every matching run id listed in
        sorted order, so the caller can add digits.
        """
        if ref == "latest":
            runs = self.runs()
            if not runs:
                raise ArchiveError(f"archive at {self.root} has no runs")
            return runs[-1].run_id
        if (self.runs_dir / ref / "manifest.json").exists():
            return ref
        names = [run_dir.name for run_dir in self.run_dirs()]
        matches = [name for name in names if name.startswith(ref)]
        if not matches:
            if not names:
                raise ArchiveError(f"archive at {self.root} has no runs")
            raise ArchiveError(f"no archived run matches {ref!r}")
        if len(matches) > 1:
            raise ArchiveError(
                f"ambiguous run ref {ref!r}: matches {len(matches)} runs "
                f"[{', '.join(matches)}]; add more digits to disambiguate"
            )
        return matches[0]

    def lookup(self, ref: str) -> RunRecord:
        """Resolve ``latest`` or a unique run-id prefix to a record."""
        return self._record(self.resolve(ref))

    def load_results(self, ref: str) -> ResultSet:
        """The archived :class:`ResultSet` for a run ref."""
        return self.lookup(ref).load_results()
