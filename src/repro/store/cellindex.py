"""Persistent cell-level memoization index for the benchmark service.

The run archive is content-addressed over *whole campaigns*: a run_id only
matches when every cell of a ResultSet matches.  A memoizing server needs
the finer question — "has this one (graph, mode, kernel, framework) cell
been measured under this spec and environment before, and in which run?"
— answered without loading a single results.json.  This index is that
mapping:

* the key is a :meth:`CellIdentity.digest` — SHA-256 over the campaign's
  *identity* (the spec minus execution topology, :func:`spec_identity`,
  which :func:`repro.resilience.journal.campaign_fingerprint` records
  too, plus the comparability slice of the environment fingerprint) and
  the cell's canonical ``(graph, mode, kernel, framework)`` key;
* the value is the ``run_id`` of an archived run containing that cell,
  so a hit is served by reading the archived ResultSet (or a warm cache
  of it) instead of executing anything;
* storage is a :class:`repro.durable.AppendLog` beside the archive
  (``<root>/cell_index.jsonl``): a header line carrying the schema
  version, then one sealed line per entry, one fsync per batch.

Execution topology (``jobs``/``pool``/``batch_size``) is deliberately
outside the digest — the backend equivalence matrix guarantees cells are
interchangeable across topologies, so a campaign measured under
``--jobs 4`` must hit for a client submitting the same spec serially.
Likewise ``git_sha`` and wall-clock metadata stay out: only the
:data:`~repro.store.environment.COMPARABILITY_KEYS` slice of the
environment participates, matching what the regression gate considers
"the same machine".

For file-backed datasets (:mod:`repro.graphs.datasets`) the graph element
of the cell key is *normalized to the file's content digest* before
hashing (:func:`normalize_cell_key`): two submissions referencing
byte-identical files share cells regardless of path, while an edited file
is a different measurement and misses.

A lost or corrupt index is a cache, not the source of truth:
:meth:`CellIndex.rebuild_from_archive` re-derives every entry from the
archived manifests + results (dataset provenance travels in the
manifests, so rebuilding never needs the original files).
"""

from __future__ import annotations

import hashlib
import threading
from pathlib import Path
from typing import Iterable, Iterator

from ..durable import AppendLog
from ..errors import ArchiveError, CorruptLogError
from .archive import RunArchive, canonical_json
from .environment import COMPARABILITY_KEYS, fingerprint

__all__ = [
    "CELL_INDEX_VERSION",
    "CellIdentity",
    "CellIndex",
    "cell_digest",
    "comparable_environment",
    "derive_index_entries",
    "identity_hasher",
    "normalize_cell_key",
    "spec_identity",
]

CELL_INDEX_VERSION = 1

#: Spec fields that are execution topology, not measurement identity.
TOPOLOGY_KEYS = ("jobs", "pool", "batch_size")

#: Canonical cell key: matches ``RunResult.cell_key``.
CellKey = tuple[str, str, str, str]


def spec_identity(spec) -> dict[str, object]:
    """The measurement-identity slice of a spec (topology stripped).

    Accepts a :class:`~repro.core.spec.BenchmarkSpec` or its dict form.
    :func:`repro.resilience.journal.campaign_fingerprint` records this
    same slice, so journal headers and cell digests agree about what
    "the same campaign" means.
    """
    spec_dict = spec.as_dict() if hasattr(spec, "as_dict") else dict(spec)
    return {
        key: value
        for key, value in spec_dict.items()
        if key not in TOPOLOGY_KEYS
    }


#: Current-process comparability slice, computed once: the slice is
#: process-invariant, and the full fingerprint() behind it shells out
#: for git_sha — far too slow for a per-submission hot path.
_PROCESS_ENVIRONMENT: dict[str, object] | None = None


def comparable_environment(
    environment: dict[str, object] | None = None,
) -> dict[str, object]:
    """The comparability slice of an environment fingerprint.

    ``None`` snapshots the current process (cached after the first
    call).  Only :data:`~repro.store.environment.COMPARABILITY_KEYS`
    participate in cell digests — a new git commit must not cold-start
    the cache, but a different interpreter or NumPy must.
    """
    global _PROCESS_ENVIRONMENT
    if environment is None:
        if _PROCESS_ENVIRONMENT is None:
            env = fingerprint()
            _PROCESS_ENVIRONMENT = {
                key: env.get(key) for key in COMPARABILITY_KEYS
            }
        return dict(_PROCESS_ENVIRONMENT)
    return {key: environment.get(key) for key in COMPARABILITY_KEYS}


def identity_hasher(spec, environment: dict[str, object] | None = None):
    """A SHA-256 pre-seeded with the (spec identity, environment) prefix.

    Hashing the campaign-wide prefix once and ``copy()``-ing per cell is
    the hot-path form: a submission with hundreds of cells pays for the
    spec JSON a single time.  Use with :func:`cell_digest`'s ``hasher=``.
    """
    prefix = canonical_json(
        {
            "environment": comparable_environment(environment),
            "spec": spec_identity(spec),
        }
    )
    return hashlib.sha256(prefix.encode())


def normalize_cell_key(
    cell_key: Iterable[str],
    datasets: dict[str, object] | None = None,
) -> CellKey:
    """Replace a file-backed graph reference with its content identity.

    ``datasets`` is a provenance map (ref -> entry carrying ``digest``),
    as recorded in archive manifests, journal fingerprints, and results
    meta by :func:`repro.graphs.datasets.graph_identities`.  The graph
    element of a cell key is the reference the client submitted
    (``file:/some/path.mtx``); hashing *that* would make cell identity
    path-sensitive — renames would miss and edits would hit.  Mapping it
    to :func:`repro.graphs.datasets.dataset_identity` (``file:sha256:...``)
    before digesting keys the memo on the bytes instead.  Generator graph
    names (and keys with no provenance entry) pass through unchanged.
    """
    key = tuple(str(part) for part in cell_key)
    if datasets:
        entry = datasets.get(key[0])
        digest = entry.get("digest") if isinstance(entry, dict) else entry
        if digest:
            from ..graphs.datasets import dataset_identity

            return (dataset_identity(str(digest)),) + key[1:]
    return key


def cell_digest(
    spec,
    cell_key: Iterable[str],
    environment: dict[str, object] | None = None,
    hasher=None,
) -> str:
    """Digest of one (spec identity, environment, cell) measurement.

    ``cell_key`` is the canonical ``(graph, mode, kernel, framework)``
    tuple.  Pass a pre-built ``hasher`` (:func:`identity_hasher`) to skip
    re-hashing the campaign prefix per cell; ``spec`` is ignored then.
    """
    h = identity_hasher(spec, environment) if hasher is None else hasher.copy()
    h.update(canonical_json(list(cell_key)).encode())
    return h.hexdigest()[:16]


class CellIdentity:
    """What makes two measurements the same one: the only digest recipe.

    Built from what names a campaign — a live request's spec under this
    process's environment, or the ``spec`` / ``environment`` / ``datasets``
    a journal header or archive manifest :meth:`recorded` — and asked for
    one :meth:`digest` per cell, so a submission, its journal and its
    archived run cannot disagree.
    """

    __slots__ = ("datasets", "_hasher")

    def __init__(
        self,
        spec,
        environment: dict[str, object] | None = None,
        datasets: dict[str, object] | None = None,
    ) -> None:
        #: Provenance map of the campaign's file-backed graphs, or None.
        self.datasets = datasets or None
        self._hasher = identity_hasher(spec, environment)

    @classmethod
    def recorded(cls, record: dict[str, object]) -> "CellIdentity | None":
        """The identity a manifest or journal header recorded; ``None``
        without a spec (a hand-archived payload), whose cells no
        submission can reproduce and so have no digest."""
        spec = record.get("spec")
        if not isinstance(spec, dict):
            return None
        environment = record.get("environment")
        datasets = record.get("datasets")
        return cls(
            spec,
            environment if isinstance(environment, dict) else None,
            datasets if isinstance(datasets, dict) else None,
        )

    def digest(self, cell_key: Iterable[str]) -> str:
        """The memo key of one ``(graph, mode, kernel, framework)`` cell."""
        return cell_digest(
            None, normalize_cell_key(cell_key, self.datasets), hasher=self._hasher
        )


class CellIndex:
    """Append-only digest → run_id map with crash-safe JSONL persistence.

    Thread-safe: the service's HTTP handler threads probe it concurrently
    while the execution engine appends.  Cross-process appends are *not*
    coordinated (one server owns the file); a reader racing a writer sees
    a prefix of the entries, which is always a valid (smaller) cache.
    """

    def __init__(self, path: str | Path) -> None:
        """Replay the log into memory; the file is written only by adds.

        Interior damage raises :class:`~repro.errors.ArchiveError` so
        self-healing can quarantine the file and rebuild from the archive.
        """
        self.path = Path(path)
        self._entries: dict[str, dict[str, object]] = {}
        self._lock = threading.Lock()
        try:
            self._log, records = AppendLog.open(
                self.path, {"cell_index_version": CELL_INDEX_VERSION}
            )
        except CorruptLogError as exc:
            raise ArchiveError(
                f"cell index {self.path} is corrupt at {exc} "
                "(delete the file to rebuild from the archive)"
            ) from exc
        if records and records[0].get("cell_index_version") != CELL_INDEX_VERSION:
            raise ArchiveError(
                f"{self.path} is not a version-{CELL_INDEX_VERSION} cell index"
            )
        for record in records[1:]:
            digest = record.get("digest")
            if isinstance(digest, str):
                # Later lines win: a re-archived cell points at the
                # freshest run containing it.
                self._entries[digest] = record

    @classmethod
    def for_archive(cls, archive: RunArchive) -> "CellIndex":
        """The index that lives beside an archive's ``runs/`` directory."""
        return cls(archive.root / "cell_index.jsonl")

    def close(self) -> None:
        """Close the append stream (reopened lazily on next write)."""
        with self._lock:
            self._log.close()

    def __enter__(self) -> "CellIndex":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    def get(self, digest: str) -> dict[str, object] | None:
        """The full entry for a digest (``run_id``, ``cell``), or None."""
        with self._lock:
            entry = self._entries.get(digest)
            return dict(entry) if entry is not None else None

    def run_id_for(self, digest: str) -> str | None:
        """The archived run holding this cell, or None on a miss."""
        with self._lock:
            entry = self._entries.get(digest)
            return str(entry["run_id"]) if entry else None

    def digests(self) -> Iterator[str]:
        """Snapshot iterator over every known cell digest."""
        with self._lock:
            return iter(list(self._entries))

    # -- updates --------------------------------------------------------

    def add(self, digest: str, run_id: str, cell_key: Iterable[str]) -> None:
        """Durably record one cell → run mapping (idempotent)."""
        self.add_many([(digest, run_id, tuple(cell_key))])

    def add_many(
        self, items: Iterable[tuple[str, str, CellKey]]
    ) -> int:
        """Record a batch of mappings with a single fsync; returns count.

        Re-adding an identical mapping is a no-op; a digest remapped to a
        new run_id is appended (replay keeps the latest).
        """
        records: list[dict[str, object]] = []
        added: dict[str, dict[str, object]] = {}
        with self._lock:
            for digest, run_id, cell_key in items:
                existing = added.get(digest) or self._entries.get(digest)
                if existing is not None and existing.get("run_id") == run_id:
                    continue
                added[digest] = {
                    "digest": digest,
                    "run_id": run_id,
                    "cell": list(cell_key),
                }
                records.append(added[digest])
            if records:
                self._log.append(records)
                self._entries.update(added)
        return len(records)

    # -- recovery -------------------------------------------------------

    def rebuild_from_archive(self, archive: RunArchive) -> int:
        """Re-derive entries from archived runs; returns cells indexed."""
        return self.add_many(derive_index_entries(archive))


def derive_index_entries(
    archive: RunArchive,
) -> Iterator[tuple[str, str, CellKey]]:
    """Every ``(digest, run_id, cell_key)`` an archive can prove.

    Each run's manifest carries the spec and the environment that
    measured it; each results.json carries the cells.  Runs without a
    spec in the manifest (hand-archived payloads) are skipped — they
    cannot be dedup targets because no submission can reproduce their
    identity.  Failed cells (``error``/``timeout``/``skipped`` results)
    are skipped too: the service only indexes and serves *ok* cells, so
    deriving them here would rebuild an index promising hits the server
    must then refuse.  This is both how
    :meth:`CellIndex.rebuild_from_archive` recovers a lost index and the
    ground truth the scrubber compares an existing index against.
    """
    for entry in archive.list_runs():
        run_id = str(entry["run_id"])
        try:
            record = archive.lookup(run_id)
            results = record.load_results()
        except (ArchiveError, OSError, ValueError, KeyError):
            continue
        identity = CellIdentity.recorded(record.manifest)
        if identity is None:
            continue
        for result in results:
            if result.ok:
                yield identity.digest(result.cell_key), run_id, result.cell_key
