"""Content-digest-addressed registry of file-backed benchmark datasets.

The GAP Benchmark Suite specifies real input graphs precisely so everyone
measures the same topologies; this module is how user-supplied files enter
the pipeline.  A *dataset reference* on the graph axis takes one of two
spellings:

``file:/path/to/graph.mtx``
    A direct path to a supported file (``.el``/``.wel``/``.mtx``, each
    optionally ``.gz``).

``dataset:NAME``
    A registered name, resolved against the dataset directory
    (``$REPRO_DATASET_DIR`` or ``./datasets``) where ``NAME.<ext>`` lives.

Resolution produces a :class:`DatasetInfo` whose ``digest`` is the SHA-256
of the file's raw bytes.  That digest — never the path, never a version
counter — is the dataset's identity everywhere downstream:

* the graph cache keys dataset artifacts on it
  (:meth:`repro.graphs.cache.GraphCache.dataset_path_for`), so renaming a
  file keeps the cache warm and editing one byte invalidates it;
* cell-memo digests and campaign fingerprints replace the reference with
  :func:`dataset_identity` before hashing
  (:func:`repro.store.cellindex.normalize_cell_key`), so the memoizing
  service serves hits for identical bytes under any path and re-executes
  modified files;
* archive manifests record the full provenance map (path, digest, format,
  size) so recovery and index rebuilds never need the original file.

Digest computation is cached per ``(mtime_ns, size, inode)`` stat triple:
the service hot path re-resolves references on every submission, and an
unchanged file must not be re-hashed each time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from ..errors import GraphFormatError, UnknownGraphError
from .csr import CSRGraph
from .io import file_digest, load_graph_file

__all__ = [
    "DATASET_DIR_ENV",
    "DatasetInfo",
    "dataset_digest",
    "dataset_identity",
    "default_dataset_dir",
    "graph_identities",
    "is_dataset_ref",
    "list_datasets",
    "load_dataset_graph",
    "resolve",
    "unknown_graphs",
]

#: Environment variable overriding the default dataset directory.
DATASET_DIR_ENV = "REPRO_DATASET_DIR"

#: Reference spellings.  Both are recognizable purely syntactically, so
#: the service protocol can validate a request shape client-side without
#: touching the (server-local) filesystem.
FILE_PREFIX = "file:"
NAME_PREFIX = "dataset:"

#: Supported file formats, keyed by extension (``.gz`` composes with any).
FORMATS = {".el": "el", ".wel": "wel", ".mtx": "mtx"}


def default_dataset_dir() -> Path:
    """The registry root: ``$REPRO_DATASET_DIR`` or ``./datasets``."""
    env = os.environ.get(DATASET_DIR_ENV)
    if env:
        return Path(env)
    return Path("datasets")


def is_dataset_ref(name: str) -> bool:
    """Whether a graph-axis entry is a dataset reference (syntactically).

    A bare prefix with nothing after it is not a reference — ``file:``
    alone should fail axis validation as an unknown graph name, not
    limp into resolution.
    """
    for prefix in (FILE_PREFIX, NAME_PREFIX):
        if name.startswith(prefix):
            return len(name) > len(prefix)
    return False


def unknown_graphs(names: list[str] | tuple[str, ...]) -> list[str]:
    """The entries of a graphs axis that are neither a generator name nor
    (syntactically) a dataset reference — what every front end rejects."""
    from ..generators.registry import GRAPH_NAMES  # generators imports graphs

    return [
        name for name in names if name not in GRAPH_NAMES and not is_dataset_ref(name)
    ]


def _detect_format(path: Path) -> str | None:
    """Format key for a dataset file, or None if the extension is unknown."""
    name = path.name
    if name.endswith(".gz"):
        name = name[: -len(".gz")]
    suffix = Path(name).suffix
    return FORMATS.get(suffix)


def _dataset_name(path: Path) -> str:
    """The registry name of a file: stem with format + ``.gz`` stripped."""
    name = path.name
    if name.endswith(".gz"):
        name = name[: -len(".gz")]
    return Path(name).stem


#: path → ((mtime_ns, size, inode), sha256).  Re-hash only when the stat
#: identity changes; an edited file always changes mtime_ns or size.
_DIGEST_CACHE: dict[str, tuple[tuple[int, int, int], str]] = {}


def dataset_digest(path: str | Path) -> str:
    """SHA-256 content digest of a dataset file, stat-cached.

    The cache makes repeated resolution (every service submission) cost
    one ``stat`` instead of one full-file hash; any modification to the
    file's bytes changes ``st_mtime_ns``/``st_size`` and forces a re-hash.
    """
    path = Path(path)
    try:
        stat = path.stat()
    except OSError as exc:
        raise UnknownGraphError(f"cannot stat dataset file {path}: {exc}") from exc
    stat_key = (stat.st_mtime_ns, stat.st_size, stat.st_ino)
    cached = _DIGEST_CACHE.get(str(path))
    if cached is not None and cached[0] == stat_key:
        return cached[1]
    digest = file_digest(path)
    _DIGEST_CACHE[str(path)] = (stat_key, digest)
    return digest


def dataset_identity(digest: str) -> str:
    """The graph-axis identity string for a content digest.

    This — not the path the user typed — is what enters cell-memo digests
    and campaign fingerprints, so two references to byte-identical files
    are the same measurement and an edited file is a different one.
    """
    return f"file:sha256:{digest}"


@dataclass(frozen=True)
class DatasetInfo:
    """One resolved dataset: where it lives and what bytes it holds."""

    ref: str
    name: str
    path: Path
    format: str
    digest: str
    size_bytes: int

    def provenance(self) -> dict[str, object]:
        """The JSON-safe provenance entry archive manifests carry."""
        return {
            "path": str(self.path),
            "digest": self.digest,
            "format": self.format,
            "bytes": self.size_bytes,
        }

    @property
    def identity(self) -> str:
        return dataset_identity(self.digest)

    def load(self) -> CSRGraph:
        """Parse the file into a :class:`CSRGraph`."""
        return load_graph_file(self.path)


def _info(ref: str, path: Path, fmt: str, name: str | None = None) -> DatasetInfo:
    return DatasetInfo(
        ref=ref,
        name=name if name is not None else _dataset_name(path),
        path=path,
        format=fmt,
        digest=dataset_digest(path),
        size_bytes=path.stat().st_size,
    )


def resolve(ref: str, dataset_dir: str | Path | None = None) -> DatasetInfo:
    """Resolve a dataset reference to a :class:`DatasetInfo`.

    Raises :class:`~repro.errors.UnknownGraphError` for a missing file or
    unregistered name and :class:`~repro.errors.GraphFormatError` for an
    unsupported extension — both :class:`~repro.errors.ReproError`, so
    callers (the CLI, the service) can turn resolution failures into
    structured errors instead of crashes.
    """
    if ref.startswith(FILE_PREFIX):
        raw = ref[len(FILE_PREFIX):]
        if not raw:
            raise UnknownGraphError("empty 'file:' dataset reference")
        path = Path(raw).expanduser()
        if not path.is_file():
            raise UnknownGraphError(f"dataset file not found: {path}")
        fmt = _detect_format(path)
        if fmt is None:
            raise GraphFormatError(
                f"unsupported dataset extension on {path.name!r} "
                "(supported: .el, .wel, .mtx, each optionally .gz)"
            )
        return _info(ref, path, fmt)
    if ref.startswith(NAME_PREFIX):
        name = ref[len(NAME_PREFIX):]
        if not name:
            raise UnknownGraphError("empty 'dataset:' reference")
        root = Path(dataset_dir) if dataset_dir is not None else default_dataset_dir()
        if root.is_dir():
            for candidate in sorted(root.iterdir()):
                fmt = _detect_format(candidate)
                if fmt is not None and _dataset_name(candidate) == name:
                    return _info(ref, candidate, fmt, name=name)
        raise UnknownGraphError(
            f"no dataset named {name!r} under {root} "
            f"(register files there or set ${DATASET_DIR_ENV})"
        )
    raise UnknownGraphError(
        f"{ref!r} is not a dataset reference "
        "(expected 'file:/path/to/graph' or 'dataset:NAME')"
    )


def load_dataset_graph(ref: str, dataset_dir: str | Path | None = None) -> CSRGraph:
    """Resolve + parse a dataset reference in one step."""
    return resolve(ref, dataset_dir).load()


def list_datasets(dataset_dir: str | Path | None = None) -> list[DatasetInfo]:
    """Every supported file in the dataset directory, sorted by name."""
    root = Path(dataset_dir) if dataset_dir is not None else default_dataset_dir()
    infos: list[DatasetInfo] = []
    if not root.is_dir():
        return infos
    for candidate in sorted(root.iterdir()):
        fmt = _detect_format(candidate)
        if fmt is None or not candidate.is_file():
            continue
        name = _dataset_name(candidate)
        infos.append(_info(f"{NAME_PREFIX}{name}", candidate, fmt, name=name))
    return infos


def graph_identities(
    graphs, dataset_dir: str | Path | None = None
) -> tuple[dict[str, str], dict[str, dict[str, object]]]:
    """Resolve a graph axis to identities + provenance in one pass.

    Returns ``(identities, provenance)``: ``identities`` maps every axis
    entry to the string that participates in cell digests and campaign
    fingerprints (generator names map to themselves, dataset references
    to :func:`dataset_identity`); ``provenance`` holds a
    :meth:`DatasetInfo.provenance` entry for each dataset reference only —
    empty for an all-generator axis, ready for an archive manifest
    otherwise.
    """
    identities: dict[str, str] = {}
    provenance: dict[str, dict[str, object]] = {}
    for name in graphs:
        if is_dataset_ref(name):
            info = resolve(name, dataset_dir)
            identities[name] = info.identity
            provenance[name] = info.provenance()
        else:
            identities[name] = name
    return identities, provenance
