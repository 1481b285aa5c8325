"""Cell identity: what makes two measurements the same one.

The run archive is content-addressed over *whole campaigns*: a run_id only
matches when every cell of a ResultSet matches.  A memoizing server needs
the finer question — "has this one (graph, mode, kernel, framework) cell
been measured under this spec and environment before, and in which run?"
This module answers it from the archive itself:

* the key is a :meth:`CellIdentity.digest` — SHA-256 over the campaign's
  *identity* (the spec minus execution topology, :func:`spec_identity`,
  which :func:`repro.resilience.journal.campaign_fingerprint` records
  too, plus the comparability slice of the environment fingerprint) and
  the cell's canonical ``(graph, mode, kernel, framework)`` key;
* :func:`derive_index_entries` maps every ok cell the archived runs hold
  to the ``run_id`` holding it — the service's digest → run map, derived
  from ``runs/`` at start and extended by every run it archives, so a hit
  is served by reading that run (or a warm cache of it) instead of
  executing anything.

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
is a different measurement and misses.  Dataset provenance travels in the
manifests, so deriving the map never needs the original files.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

from ..errors import ArchiveError
from .archive import RunArchive, canonical_json
from .environment import COMPARABILITY_KEYS, fingerprint

__all__ = [
    "CellIdentity",
    "cell_digest",
    "comparable_environment",
    "derive_index_entries",
    "identity_hasher",
    "normalize_cell_key",
    "spec_identity",
]

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


def derive_index_entries(archive: RunArchive) -> Iterator[tuple[str, str]]:
    """Every ``(digest, run_id)`` an archive can prove.

    Each run's manifest carries the spec and the environment that
    measured it; each results.json carries the cells.  Runs without a
    spec in the manifest (hand-archived payloads) are skipped — they
    cannot be dedup targets because no submission can reproduce their
    identity.  Failed cells (``error``/``timeout``/``skipped`` results)
    are skipped too: the service only serves *ok* cells.  Runs come
    oldest first, so in the ``dict`` of the entries a cell held by two
    runs maps to the newer.
    """
    for record in archive.runs():
        try:
            results = record.load_results()
        except (ArchiveError, OSError, ValueError, KeyError):
            continue
        identity = CellIdentity.recorded(record.manifest)
        if identity is None:
            continue
        for result in results:
            if result.ok:
                yield identity.digest(result.cell_key), record.run_id
