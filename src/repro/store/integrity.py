"""Storage integrity: run digests, scrub, quarantine.

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
  manifest, moves damaged runs into ``<root>/quarantine/`` (never
  deletes: quarantined bytes are forensic evidence, and quarantining is
  what lets the *rest* of the archive stay servable), and writes a
  ``last_scrub.json`` verdict that the service's ``/health`` endpoint
  surfaces.  Nothing else needs healing: the service derives which run
  holds each cell from the surviving runs themselves.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..core.results import ResultSet
from ..graphs.io import file_digest
from .archive import RunArchive, write_json_atomic

__all__ = [
    "ScrubReport",
    "last_scrub_report",
    "quarantine_count",
    "quarantine_run",
    "run_file_digests",
    "scrub",
    "verify_run",
]

#: Files whose digests an archive manifest records, in manifest order.
RUN_DIGEST_FILES = ("results.json", "spans.jsonl")


# -- whole-run digests --------------------------------------------------


def run_file_digests(run_dir: str | Path) -> dict[str, str]:
    """Digests of a run directory's payload files (absent files skipped)."""
    run_dir = Path(run_dir)
    digests: dict[str, str] = {}
    for name in RUN_DIGEST_FILES:
        path = run_dir / name
        if path.exists():
            digests[name] = file_digest(path)
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
    """Outcome of one scrub pass over an archive."""

    archive_root: str
    started_at: str
    checked_runs: int = 0
    quarantined: list[dict[str, object]] = field(default_factory=list)
    unresolved: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        """``clean`` (nothing wrong), ``healed`` (damage found and
        repaired), or ``failed`` (problems remain after healing)."""
        if self.unresolved:
            return "failed"
        if self.quarantined:
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
    """Verify-and-heal pass over an archive.

    Every run directory is verified (:func:`verify_run`); damaged runs
    move to quarantine (with ``quarantine=False`` they are only
    reported, and the verdict is ``failed`` — the damage persists).  A
    quarantined run leaves ``runs/``, so no listing names it again, and
    no server started afterwards derives a cell from it.

    The report is persisted to ``<root>/last_scrub.json`` so operators
    (and the service's ``/health``) can see the latest verdict.
    """
    report = ScrubReport(
        archive_root=str(archive.root),
        started_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )
    for run_dir in archive.run_dirs():
        report.checked_runs += 1
        problems = verify_run(run_dir)
        if not problems:
            continue
        entry: dict[str, object] = {"run_id": run_dir.name, "problems": problems}
        if quarantine:
            try:
                target = quarantine_run(archive, run_dir.name)
                entry["quarantined_to"] = str(target)
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

    try:
        write_json_atomic(last_scrub_path(archive.root), report.as_dict())
    except OSError as exc:
        report.unresolved.append(f"could not persist scrub report: {exc}")
    return report
