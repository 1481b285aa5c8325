"""Crash-safe checkpoint journal for benchmark campaigns.

A campaign that only materializes its ``ResultSet`` at the end loses every
completed cell when the process dies at cell k of n — hours of work for a
long multi-framework run.  The journal makes cell completion *durable*:

* an append-only JSONL file whose first line is a header (journal
  version + a :func:`campaign_fingerprint` of the spec, axes, and
  environment) and whose subsequent lines each hold one completed cell's
  full :meth:`~repro.core.results.RunResult.as_dict` record;
* every record is appended as one pre-encoded line, flushed, and fsynced
  before the campaign moves on — a crash at any instant leaves at most
  one torn *trailing* line, which resume detects and discards;
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

Fault-injection plans (``BenchmarkSpec.faults``) are deliberately outside
the fingerprint: killing a campaign with an injected crash and resuming
it without the fault is precisely the crash/resume test protocol.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from ..core.results import RunResult
from ..errors import JournalError
from .iofaults import shim_fsync, shim_write

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
    the same spec (trials, scale, seed, timeout — fault plans excluded)
    over the same axes.  The environment rides along so resume can refuse
    a journal written on a non-comparable machine.

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
    from ..store.environment import fingerprint

    spec_identity = {
        key: value
        for key, value in spec.as_dict().items()
        if key not in ("jobs", "pool", "batch_size")
    }
    identity: dict[str, object] = {
        "spec": spec_identity,
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


def read_journal(
    path: str | Path,
) -> tuple[dict[str, object], dict[CellKey, RunResult]]:
    """Read a journal's fingerprint + completed cells without resuming it.

    The benchmark service uses this at startup to recover work from
    journals left behind by a crashed server: unlike
    :meth:`CheckpointJournal.resume`, no current-campaign fingerprint is
    required — the *recorded* fingerprint is returned so the caller can
    re-derive cell digests for whatever campaign the journal belonged to.
    A torn trailing line is discarded exactly as resume would.
    """
    path = Path(path)
    header, completed = CheckpointJournal._read(path)
    recorded = header.get("fingerprint")
    if header.get("journal_version") != JOURNAL_VERSION or not isinstance(
        recorded, dict
    ):
        raise JournalError(
            f"{path} is not a version-{JOURNAL_VERSION} campaign journal"
        )
    return recorded, completed


class CheckpointJournal:
    """Append-only JSONL journal of completed campaign cells.

    Construct via :meth:`create` (fresh journal, truncates) or
    :meth:`resume` (validate + load completed cells, then append).
    """

    def __init__(self, path: str | Path, fingerprint: dict[str, object]) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._stream = None

    # -- construction ---------------------------------------------------

    @classmethod
    def create(
        cls, path: str | Path, fingerprint: dict[str, object]
    ) -> "CheckpointJournal":
        """Start a fresh journal, writing the header line."""
        journal = cls(path, fingerprint)
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        journal._stream = open(journal.path, "wb")
        journal._append(
            {"journal_version": JOURNAL_VERSION, "fingerprint": fingerprint}
        )
        return journal

    @classmethod
    def resume(
        cls, path: str | Path, fingerprint: dict[str, object]
    ) -> tuple["CheckpointJournal", dict[CellKey, RunResult]]:
        """Load a journal for resumption; returns ``(journal, completed)``.

        A missing journal resumes as a fresh campaign (so ``--resume`` is
        safe to pass on the first run).  A fingerprint mismatch raises
        :class:`~repro.errors.JournalError` naming every differing field.
        """
        path = Path(path)
        if not path.exists():
            return cls.create(path, fingerprint), {}
        header, completed = cls._read(path)
        recorded = header.get("fingerprint")
        if header.get("journal_version") != JOURNAL_VERSION or not isinstance(
            recorded, dict
        ):
            raise JournalError(
                f"{path} is not a version-{JOURNAL_VERSION} campaign journal"
            )
        problems = _fingerprint_errors(recorded, fingerprint)
        if problems:
            raise JournalError(
                f"journal {path} was written by a different campaign; "
                f"mismatched: {', '.join(problems)} "
                "(delete the journal to start over)"
            )
        journal = cls(path, fingerprint)
        journal._stream = open(path, "ab")
        return journal, completed

    @staticmethod
    def _read(path: Path) -> tuple[dict[str, object], dict[CellKey, RunResult]]:
        """Parse header + completed cells, discarding a torn trailing line.

        Only a line terminated by ``\\n`` is trusted: an append cut short
        by a crash leaves an unterminated tail, which is exactly the cell
        that must be re-executed anyway.
        """
        # Layering: repro.store sits above repro.resilience, so the
        # checksum helpers are imported lazily (same as the fingerprint's
        # environment import).
        from ..store.integrity import verify_line

        raw = path.read_bytes()
        lines = raw.split(b"\n")
        if raw and not raw.endswith(b"\n"):
            lines = lines[:-1]  # torn tail: the interrupted append
        stripped = [line.strip() for line in lines]
        stripped = [line for line in stripped if line]
        records = []
        for index, line in enumerate(stripped):
            final = index == len(stripped) - 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if final and index > 0:
                    break  # flushed but garbled tail: treat as torn
                raise JournalError(
                    f"journal {path} has a corrupt non-trailing line: {exc}"
                ) from exc
            if not isinstance(record, dict) or not verify_line(record):
                if final and index > 0:
                    break  # checksum-failed tail: never fully durable
                raise JournalError(
                    f"journal {path} line {index + 1} failed its checksum"
                )
            records.append(record)
        if not records:
            raise JournalError(f"journal {path} has no header line")
        header = records[0]
        completed: dict[CellKey, RunResult] = {}
        for record in records[1:]:
            result = RunResult.from_dict(record["result"])
            completed[result.cell_key] = result
        return header, completed

    # -- appending ------------------------------------------------------

    def _append(self, record: dict[str, object]) -> None:
        if self._stream is None:
            raise JournalError(f"journal {self.path} is closed")
        from ..store.integrity import seal_line

        # One pre-encoded, checksummed line per write call, then flush +
        # fsync: the record is either fully on disk or detectably torn,
        # never interleaved or silently buffered past a crash.  Routed
        # through the I/O-fault shim so chaos tests can tear or fail this
        # exact append.
        data = json.dumps(seal_line(record), default=str).encode() + b"\n"
        shim_write(self._stream, data, self.path)
        shim_fsync(self._stream, self.path)

    def record(self, result: RunResult) -> None:
        """Durably append one completed cell."""
        self._append({"result": result.as_dict()})

    def close(self) -> None:
        """Close the underlying stream (appends after this raise)."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
