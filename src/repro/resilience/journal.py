"""Crash-safe checkpoint journal for benchmark campaigns.

A campaign that only materializes its ``ResultSet`` at the end loses every
completed cell when the process dies at cell k of n — hours of work for a
long multi-framework run.  The journal makes cell completion *durable*:

* an append-only JSONL file whose first line is a header (journal
  version + a :func:`campaign_fingerprint` of the spec, axes, and
  environment) and whose subsequent lines each hold one completed cell's
  full :meth:`~repro.core.results.RunResult.as_dict` record;
* the file is a :class:`repro.durable.AppendLog`: every record is one
  sealed line, fsynced before the campaign moves on — a crash at any
  instant leaves at most a damaged *end*, which resume drops and the
  first append after it cuts from the file;
* ``resume`` re-reads the journal, validates that the header fingerprint
  matches the resuming campaign (same spec, same graph/kernel/mode/
  framework axes, comparable environment — refusing to silently mix
  results from a different campaign or machine), and returns the
  completed cells keyed by canonical cell identity so the runner skips
  exactly those and re-assembles a canonical ``ResultSet``.

All completed cells are skipped on resume regardless of status: an
``error`` or ``timeout`` cell *finished executing* with a recorded
outcome, and re-running it would make a resumed campaign diverge from an
uninterrupted one.  Delete the journal to re-measure from scratch.

Fault-injection plans (:mod:`repro.faults`) are no part of the spec, so
they stay outside the fingerprint: killing a campaign with an injected
crash and resuming it without the fault is precisely the crash/resume
test protocol.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from ..core.results import RunResult
from ..durable import AppendLog
from ..errors import CorruptLogError, JournalError

__all__ = [
    "JOURNAL_VERSION",
    "CheckpointJournal",
    "campaign_fingerprint",
    "read_journal",
]

JOURNAL_VERSION = 1

#: Cell identity key: matches ``RunResult.cell_key``.
CellKey = tuple[str, str, str, str]


def campaign_fingerprint(
    spec,
    graphs: Iterable[str],
    kernels: Iterable[str],
    modes: Iterable[str],
    frameworks: Iterable[str],
    datasets: dict[str, dict[str, object]] | None = None,
) -> dict[str, object]:
    """Identity of a campaign for resume validation.

    Two campaigns with equal fingerprints produce interchangeable cells:
    the same spec (trials, scale, seed, timeout) over the same axes.  The
    environment rides along so resume can refuse a journal written on a
    non-comparable machine.

    Execution topology — ``jobs``, ``pool``, ``batch_size`` — is *not*
    identity: the backend equivalence matrix guarantees cells are
    interchangeable across serial, process-pool, and thread-pool runs,
    so a campaign interrupted under one topology may resume under
    another (e.g. finish a crashed ``--jobs 8`` run serially).

    ``datasets`` is the provenance map for file-backed graph-axis entries
    (ref -> path/digest/format, see
    :func:`repro.graphs.datasets.graph_identities`).  Including it makes
    the *bytes* of a dataset part of campaign identity: a journal written
    against one version of a file refuses to resume after the file is
    edited, exactly like a changed spec — and service recovery can
    re-derive content-addressed cell digests from the recorded map without
    the original file existing anymore.
    """
    from ..store.cellindex import spec_identity
    from ..store.environment import fingerprint

    identity: dict[str, object] = {
        "spec": spec_identity(spec),
        "graphs": list(graphs),
        "kernels": list(kernels),
        "modes": list(modes),
        "frameworks": list(frameworks),
        "environment": fingerprint(),
    }
    if datasets:
        identity["datasets"] = {ref: dict(entry) for ref, entry in datasets.items()}
    return identity


def _fingerprint_errors(
    recorded: dict[str, object], current: dict[str, object]
) -> list[str]:
    """Why a journal cannot be resumed by the current campaign (if at all)."""
    from ..store.environment import fingerprint_mismatches

    problems = []
    for key in ("spec", "graphs", "kernels", "modes", "frameworks", "datasets"):
        if recorded.get(key) != current.get(key):
            problems.append(key)
    env_mismatch = fingerprint_mismatches(
        recorded.get("environment"), current.get("environment")
    )
    problems.extend(f"environment.{key}" for key in env_mismatch)
    return problems


def _header(fingerprint: dict[str, object]) -> dict[str, object]:
    return {"journal_version": JOURNAL_VERSION, "fingerprint": fingerprint}


def _corrupt(path: Path, exc: CorruptLogError) -> JournalError:
    return JournalError(f"journal {path} has a corrupt non-trailing line ({exc})")


def _interpret(
    path: Path, records: list[dict[str, object]]
) -> tuple[dict[str, object], dict[CellKey, RunResult]]:
    """A journal's durable records as ``(fingerprint, completed cells)``."""
    recorded = records[0].get("fingerprint")
    if records[0].get("journal_version") != JOURNAL_VERSION or not isinstance(
        recorded, dict
    ):
        raise JournalError(
            f"{path} is not a version-{JOURNAL_VERSION} campaign journal"
        )
    completed: dict[CellKey, RunResult] = {}
    for record in records[1:]:
        result = RunResult.from_dict(record["result"])
        completed[result.cell_key] = result
    return recorded, completed


def read_journal(
    path: str | Path,
) -> tuple[dict[str, object], dict[CellKey, RunResult]]:
    """Read a journal's fingerprint + completed cells without resuming it.

    The benchmark service uses this at startup to recover work from
    journals left behind by a crashed server: unlike
    :meth:`CheckpointJournal.resume`, no current-campaign fingerprint is
    required — the *recorded* fingerprint is returned so the caller can
    re-derive cell digests for whatever campaign the journal belonged to.
    A never-durable end is dropped exactly as resume would.
    """
    path = Path(path)
    try:
        records = AppendLog.read(path)
    except CorruptLogError as exc:
        raise _corrupt(path, exc) from exc
    if not records:
        raise JournalError(f"journal {path} has no header line")
    return _interpret(path, records)


class CheckpointJournal:
    """Append-only JSONL journal of completed campaign cells.

    Construct via :meth:`create` (fresh journal, truncates) or
    :meth:`resume` (validate + load completed cells, then append).
    """

    def __init__(
        self, path: str | Path, fingerprint: dict[str, object], log: AppendLog
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._log: AppendLog | None = log

    # -- construction ---------------------------------------------------

    @classmethod
    def create(
        cls, path: str | Path, fingerprint: dict[str, object]
    ) -> "CheckpointJournal":
        """Start a fresh journal, writing the header line."""
        return cls(path, fingerprint, AppendLog.create(path, _header(fingerprint)))

    @classmethod
    def resume(
        cls, path: str | Path, fingerprint: dict[str, object]
    ) -> tuple["CheckpointJournal", dict[CellKey, RunResult]]:
        """Load a journal for resumption; returns ``(journal, completed)``.

        A missing journal — or one whose writer died before even the
        header was durable — resumes as a fresh campaign (so ``--resume``
        is safe to pass on the first run).  A fingerprint mismatch raises
        :class:`~repro.errors.JournalError` naming every differing field.
        """
        path = Path(path)
        try:
            log, records = AppendLog.open(path, _header(fingerprint))
        except CorruptLogError as exc:
            raise _corrupt(path, exc) from exc
        if not records:
            return cls.create(path, fingerprint), {}
        recorded, completed = _interpret(path, records)
        problems = _fingerprint_errors(recorded, fingerprint)
        if problems:
            raise JournalError(
                f"journal {path} was written by a different campaign; "
                f"mismatched: {', '.join(problems)} "
                "(delete the journal to start over)"
            )
        return cls(path, fingerprint, log), completed

    # -- appending ------------------------------------------------------

    def record(self, result: RunResult) -> None:
        """Durably append one completed cell."""
        if self._log is None:
            raise JournalError(f"journal {self.path} is closed")
        self._log.append([{"result": result.as_dict()}])

    def close(self) -> None:
        """Close the underlying log (appends after this raise)."""
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
