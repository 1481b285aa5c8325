"""Storage integrity: run digests, scrub, quarantine, self-healing.

"Measure once, serve forever" is only as good as the bytes under it.
:mod:`repro.durable` protects against *interrupted* writes (atomic
replaces, sealed fsynced appends, a never-durable end dropped and cut)
and makes damaged log lines detectable; this module covers *silent*
damage to what was already written — a bit flipped by bad RAM or a
failing disk, a file truncated by an overeager cleanup — and what to do
about it:

* **whole-run digests** — archive manifests record the SHA-256 of the
  run's ``results.json`` and ``spans.jsonl`` at archive time
  (:func:`run_file_digests`), so any later mutation of an archived run is
  detectable without trusting the payload's own parseability.
* **scrub** (:func:`scrub`) — verifies every archived run against its
  manifest and every cell-index entry against the archive, moves damaged
  runs into ``<root>/quarantine/`` (never deletes: quarantined bytes are
  forensic evidence, and quarantining is what lets the *rest* of the
  archive stay servable), rebuilds the cell index when it disagrees with
  the surviving runs, and writes a ``last_scrub.json`` verdict that the
  service's ``/health`` endpoint surfaces.
* **self-healing index open** (:func:`open_self_healing_index`) — a
  server whose cell index fails checksum replay quarantines it and
  rebuilds from the archive instead of refusing to start; a lost or
  corrupt index is a cache, never the source of truth.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..core.results import ResultSet
from ..durable import AppendLog
from ..errors import ArchiveError
from .archive import RunArchive, write_json_atomic
from .cellindex import CellIndex, derive_index_entries

__all__ = [
    "ScrubReport",
    "file_sha256",
    "last_scrub_report",
    "open_self_healing_index",
    "quarantine_count",
    "quarantine_run",
    "run_file_digests",
    "scrub",
    "verify_run",
]

#: Files whose digests an archive manifest records, in manifest order.
RUN_DIGEST_FILES = ("results.json", "spans.jsonl")


# -- whole-run digests --------------------------------------------------


def file_sha256(path: str | Path) -> str:
    """Streaming SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_file_digests(run_dir: str | Path) -> dict[str, str]:
    """Digests of a run directory's payload files (absent files skipped)."""
    run_dir = Path(run_dir)
    digests: dict[str, str] = {}
    for name in RUN_DIGEST_FILES:
        path = run_dir / name
        if path.exists():
            digests[name] = file_sha256(path)
    return digests


def verify_run(run_dir: str | Path) -> list[str]:
    """Problems with one archived run directory (empty = verified).

    Checks, in order of increasing trust: the manifest parses, the
    payload files it digested still hash to the recorded values, and the
    results payload itself parses as a ResultSet.  Runs archived before
    integrity digests (no ``integrity`` block) get the parse checks only.
    """
    run_dir = Path(run_dir)
    problems: list[str] = []
    manifest_path = run_dir / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"manifest unreadable: {exc}"]
    if manifest.get("run_id") not in (None, run_dir.name):
        problems.append(
            f"manifest run_id {manifest.get('run_id')!r} does not match "
            f"directory {run_dir.name!r}"
        )
    recorded = manifest.get("integrity")
    if isinstance(recorded, dict):
        actual = run_file_digests(run_dir)
        for name, digest in recorded.items():
            if actual.get(name) != digest:
                problems.append(
                    f"{name} digest mismatch (recorded {str(digest)[:12]}, "
                    f"actual {str(actual.get(name))[:12]})"
                )
    results_path = run_dir / "results.json"
    try:
        ResultSet.load_json(results_path)
    except Exception as exc:  # noqa: BLE001 - any parse failure is damage
        problems.append(f"results.json unparseable: {exc}")
    return problems


# -- quarantine ---------------------------------------------------------


def quarantine_dir(root: str | Path) -> Path:
    """The quarantine area beside an archive's ``runs/``."""
    return Path(root) / "quarantine"


def quarantine_count(root: str | Path) -> int:
    """Artifacts currently held in quarantine (0 when none/absent)."""
    qdir = quarantine_dir(root)
    if not qdir.is_dir():
        return 0
    return sum(1 for entry in qdir.iterdir() if not entry.name.startswith("."))


def _quarantine_target(root: Path, name: str) -> Path:
    qdir = quarantine_dir(root)
    qdir.mkdir(parents=True, exist_ok=True)
    target = qdir / name
    suffix = 0
    while target.exists():
        suffix += 1
        target = qdir / f"{name}.{suffix}"
    return target


def quarantine_run(archive: RunArchive, run_id: str) -> Path:
    """Move one damaged run directory into quarantine; returns the target."""
    source = archive.runs_dir / run_id
    target = _quarantine_target(archive.root, run_id)
    shutil.move(str(source), str(target))
    return target


# -- scrub --------------------------------------------------------------


@dataclass
class ScrubReport:
    """Outcome of one scrub pass over an archive + its cell index."""

    archive_root: str
    started_at: str
    checked_runs: int = 0
    quarantined: list[dict[str, object]] = field(default_factory=list)
    index_problems: list[str] = field(default_factory=list)
    index_rebuilt: bool = False
    index_entries: int = 0
    unresolved: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        """``clean`` (nothing wrong), ``healed`` (damage found and
        repaired), or ``failed`` (problems remain after healing)."""
        if self.unresolved:
            return "failed"
        if self.quarantined or self.index_rebuilt:
            return "healed"
        return "clean"

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable form (what ``last_scrub.json`` persists)."""
        return {
            "archive_root": self.archive_root,
            "started_at": self.started_at,
            "verdict": self.verdict,
            "checked_runs": self.checked_runs,
            "quarantined": list(self.quarantined),
            "index_problems": list(self.index_problems),
            "index_rebuilt": self.index_rebuilt,
            "index_entries": self.index_entries,
            "unresolved": list(self.unresolved),
        }


def last_scrub_path(root: str | Path) -> Path:
    """Where an archive's most recent scrub report is persisted."""
    return Path(root) / "last_scrub.json"


def last_scrub_report(root: str | Path) -> dict[str, object] | None:
    """The most recent scrub verdict for an archive root, or None."""
    try:
        raw = json.loads(last_scrub_path(root).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return raw if isinstance(raw, dict) else None


def scrub(
    archive: RunArchive,
    quarantine: bool = True,
) -> ScrubReport:
    """Verify-and-heal pass over an archive and its cell index.

    1. Every run directory is verified (:func:`verify_run`); damaged runs
       move to quarantine (with ``quarantine=False`` they are only
       reported, and the verdict is ``failed`` — the damage persists).
    2. The archive's listing index is rebuilt if any run was quarantined
       (run directories are the source of truth; the listing must not
       keep advertising evicted runs).
    3. The cell index is compared against a fresh derivation from the
       surviving runs: corrupt lines, entries pointing at quarantined or
       unknown runs, or missing entries all trigger a rebuild — after
       which every index entry provably resolves to a verified run.

    The report is persisted to ``<root>/last_scrub.json`` so operators
    (and the service's ``/health``) can see the latest verdict.
    """
    report = ScrubReport(
        archive_root=str(archive.root),
        started_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )
    runs_dir = archive.runs_dir
    damaged: list[str] = []
    if runs_dir.is_dir():
        for run_dir in sorted(runs_dir.iterdir()):
            if run_dir.name.startswith("."):
                continue
            report.checked_runs += 1
            problems = verify_run(run_dir)
            if not problems:
                continue
            entry: dict[str, object] = {
                "run_id": run_dir.name,
                "problems": problems,
            }
            if quarantine:
                try:
                    target = quarantine_run(archive, run_dir.name)
                    entry["quarantined_to"] = str(target)
                    damaged.append(run_dir.name)
                except OSError as exc:
                    report.unresolved.append(
                        f"run {run_dir.name}: quarantine failed: {exc}"
                    )
            else:
                report.unresolved.append(
                    f"run {run_dir.name}: damaged (quarantine disabled): "
                    + "; ".join(problems)
                )
            report.quarantined.append(entry)

    if damaged:
        # The listing index is derived state; regenerate it from the
        # surviving manifests so history/lookup stop naming evicted runs.
        archive.index_path.unlink(missing_ok=True)
        archive._rebuild_index()

    # Cross-check the cell index against what the surviving archive can
    # actually prove: every entry must re-derive from a verified run.
    index_path = archive.root / "cell_index.jsonl"
    records, line_problems = AppendLog.scan(index_path)
    report.index_problems.extend(line_problems)
    on_disk = {r["digest"]: r.get("run_id") for r in records if "digest" in r}
    expected = {
        digest: run_id for digest, run_id, _ in derive_index_entries(archive)
    }
    stale = {
        digest: run_id
        for digest, run_id in on_disk.items()
        if expected.get(digest) != run_id
    }
    for digest, run_id in sorted(stale.items()):
        report.index_problems.append(
            f"entry {digest} -> {run_id}: not derivable from the archive"
        )
    missing = [digest for digest in expected if digest not in on_disk]
    for digest in sorted(missing):
        report.index_problems.append(
            f"entry {digest} -> {expected[digest]}: archived but not indexed"
        )

    if report.index_problems:
        if index_path.exists():
            try:
                shutil.move(
                    str(index_path),
                    str(_quarantine_target(archive.root, index_path.name)),
                )
            except OSError as exc:
                report.unresolved.append(f"cell index: quarantine failed: {exc}")
        if not report.unresolved:
            with CellIndex(index_path) as index:
                index.rebuild_from_archive(archive)
                report.index_entries = len(index)
            report.index_rebuilt = True
    else:
        report.index_entries = len(on_disk)

    try:
        write_json_atomic(last_scrub_path(archive.root), report.as_dict())
    except OSError as exc:
        report.unresolved.append(f"could not persist scrub report: {exc}")
    return report


# -- self-healing index -------------------------------------------------


def open_self_healing_index(
    archive: RunArchive,
) -> tuple[CellIndex, dict[str, object] | None]:
    """Open an archive's cell index, healing it if replay fails.

    Returns ``(index, heal_report)`` where ``heal_report`` is None when
    the index loaded cleanly, else a record of what was quarantined and
    how many cells were re-derived.  The service uses this at startup so
    a corrupt index (crashed writer, bit rot, concurrent-writer damage)
    degrades to a rebuild instead of refusing to serve.
    """
    path = archive.root / "cell_index.jsonl"
    try:
        return CellIndex(path), None
    except ArchiveError as exc:
        reason = str(exc)
    target = _quarantine_target(archive.root, path.name)
    shutil.move(str(path), str(target))
    index = CellIndex(path)
    report: dict[str, object] = {"quarantined": str(target), "error": reason}
    try:
        report["reindexed_cells"] = index.rebuild_from_archive(archive)
    except OSError as exc:
        # The rebuild write itself failed (full disk, failing device).
        # The index is a cache: boot with whatever was re-derived so
        # far — unindexed cells degrade to misses, never to corruption.
        report["reindexed_cells"] = len(index)
        report["reindex_error"] = str(exc)
    return index, report
