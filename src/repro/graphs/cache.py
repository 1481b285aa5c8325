"""Persistent on-disk cache for generated benchmark graphs.

Generating the corpus dominates campaign startup: every ``run_suite``
invocation (and every test session) rebuilds each graph from its
generator even though the output is a pure function of
``(name, scale, seed, generator-version)``.  GAP itself treats graph
building as untimed and amortized across kernels; this cache amortizes it
across *campaigns* — a warm hit skips generation (and the derived-view
construction) entirely.

Artifacts are ``.npz`` files holding one full benchmark case — the base
graph plus its weighted and undirected views, with object-level aliasing
preserved (a view that *is* the base graph stays the same object after a
round trip, and arrays shared between views are stored once).  Artifacts
are written with :func:`repro.durable.atomic_write`, each with a SHA-256
sidecar of the bytes *intended* for disk that is validated on load, so a
torn or corrupted file degrades to a cache miss instead of a wrong graph.

Generated-corpus keys include
:data:`repro.generators.registry.GENERATOR_VERSION`; bumping it when
generator logic changes invalidates every stale artifact.  File-backed
datasets (:mod:`repro.graphs.datasets`) are keyed by the input file's
SHA-256 *content digest* instead — no generator made them, so the version
is irrelevant, and digest keying gives exactly the right invalidation:
renames hit, byte edits miss.

This module also provides the case (de)composition helpers —
:func:`decompose_case` / :func:`recompose_case` — used by
:mod:`repro.core.sharedmem` to publish the same structure over
shared-memory segments.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

from ..durable import atomic_write
from ..errors import GraphFormatError
from .csr import CSRGraph

__all__ = [
    "GraphCache",
    "decompose_case",
    "recompose_case",
    "default_cache_dir",
]

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Order of the six CSR arrays in a graph's slot table.
_ARRAY_FIELDS = (
    "indptr",
    "indices",
    "weights",
    "in_indptr",
    "in_indices",
    "in_weights",
)


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/graphs``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "graphs"


# ----------------------------------------------------------------------
# Case (de)composition: a benchmark case as flat arrays + a layout dict
# ----------------------------------------------------------------------


def decompose_case(
    graph: CSRGraph, weighted: CSRGraph, undirected: CSRGraph
) -> tuple[dict[str, object], list[np.ndarray]]:
    """Flatten a case's three views into unique arrays plus a layout.

    Views that alias each other (``weighted`` may *be* ``graph``;
    ``undirected`` aliases it for already-undirected inputs) and arrays
    shared between views (an undirected graph's in-adjacency aliases its
    out-adjacency) are recorded once; the layout references them by index,
    so a recomposed case reproduces the exact aliasing structure.

    Returns ``(layout, arrays)`` where ``layout`` is JSON/pickle-safe.
    """
    views = (graph, weighted, undirected)
    unique_graphs: list[CSRGraph] = []
    graph_index: dict[int, int] = {}
    for view in views:
        if id(view) not in graph_index:
            graph_index[id(view)] = len(unique_graphs)
            unique_graphs.append(view)

    arrays: list[np.ndarray] = []
    array_index: dict[int, int] = {}

    def slot(array: np.ndarray | None) -> int:
        if array is None:
            return -1
        if id(array) not in array_index:
            array_index[id(array)] = len(arrays)
            arrays.append(array)
        return array_index[id(array)]

    graph_layouts = [
        {
            "num_vertices": g.num_vertices,
            "directed": bool(g.directed),
            "slots": [slot(getattr(g, name)) for name in _ARRAY_FIELDS],
        }
        for g in unique_graphs
    ]
    layout = {
        "graphs": graph_layouts,
        "views": [graph_index[id(view)] for view in views],
    }
    return layout, arrays


def recompose_case(
    layout: dict[str, object], arrays: list[np.ndarray]
) -> tuple[CSRGraph, CSRGraph, CSRGraph]:
    """Rebuild ``(graph, weighted, undirected)`` from a layout + arrays.

    The inverse of :func:`decompose_case`: aliased views come back as the
    same :class:`CSRGraph` object and shared arrays as the same ndarray.
    """
    unique_graphs: list[CSRGraph] = []
    for entry in layout["graphs"]:
        slots = entry["slots"]
        fields = [None if index < 0 else arrays[index] for index in slots]
        unique_graphs.append(
            CSRGraph(
                int(entry["num_vertices"]),
                fields[0],
                fields[1],
                fields[2],
                fields[3],
                fields[4],
                fields[5],
                directed=bool(entry["directed"]),
            )
        )
    graph, weighted, undirected = (unique_graphs[i] for i in layout["views"])
    return graph, weighted, undirected


# ----------------------------------------------------------------------
# The persistent cache
# ----------------------------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class GraphCache:
    """Content-validated ``.npz`` store of prebuilt benchmark cases.

    ``root`` defaults to :func:`default_cache_dir`; ``version`` defaults
    to the generators' :data:`GENERATOR_VERSION` (overridable for tests).
    ``hits`` / ``misses`` count lookups for the scaling bench; ``corrupt``
    counts the subset of misses where an artifact *existed* but failed
    checksum or parse validation — the signal the resilience layer (and
    its cache-corruption fault tests) watch to distinguish "cold cache"
    from "something is damaging artifacts".  Each such miss also appends
    a structured record to ``corrupt_events`` (artifact path plus a
    machine-readable ``reason``), so callers can emit a warning span
    instead of degrading damage to a silent rebuild.
    """

    def __init__(
        self, root: str | Path | None = None, version: str | None = None
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self._version = version
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        #: Structured record of every corrupt-artifact miss, in order.
        self.corrupt_events: list[dict[str, object]] = []

    @property
    def version(self) -> str:
        if self._version is None:
            from ..generators.registry import GENERATOR_VERSION

            self._version = GENERATOR_VERSION
        return self._version

    def path_for(self, name: str, scale: int, seed: int) -> Path:
        """Artifact path for one ``(name, scale, seed, version)`` key."""
        return self.root / f"{name}-s{scale}-r{seed}-g{self.version}.npz"

    def dataset_path_for(self, digest: str, seed: int) -> Path:
        """Artifact path for a file-backed dataset case.

        Keyed by the file's SHA-256 *content digest*, not its path and not
        :data:`GENERATOR_VERSION`: renaming a dataset file keeps its cache
        entry warm, editing a byte misses and rebuilds, and generator-logic
        bumps never touch it (no generator produced it).  ``seed`` stays in
        the key because the weighted SSSP view's synthetic weights are a
        function of it.
        """
        return self.root / f"dataset-{digest[:16]}-r{seed}.npz"

    @staticmethod
    def _checksum_path(path: Path) -> Path:
        return path.with_suffix(path.suffix + ".sha256")

    # -- store ----------------------------------------------------------

    def store_views(
        self,
        name: str,
        scale: int,
        seed: int,
        graph: CSRGraph,
        weighted: CSRGraph,
        undirected: CSRGraph,
    ) -> Path:
        """Atomically persist one generated case; returns the artifact path."""
        key = {
            "name": name,
            "scale": int(scale),
            "seed": int(seed),
            "version": self.version,
        }
        return self._store_case(
            self.path_for(name, scale, seed), key, graph, weighted, undirected
        )

    def store_dataset_views(
        self,
        digest: str,
        seed: int,
        graph: CSRGraph,
        weighted: CSRGraph,
        undirected: CSRGraph,
    ) -> Path:
        """Persist a file-backed case under its content digest."""
        key = {"digest": digest, "seed": int(seed)}
        return self._store_case(
            self.dataset_path_for(digest, seed), key, graph, weighted, undirected
        )

    def _store_case(
        self,
        path: Path,
        key: dict[str, object],
        graph: CSRGraph,
        weighted: CSRGraph,
        undirected: CSRGraph,
    ) -> Path:
        layout, arrays = decompose_case(graph, weighted, undirected)
        meta = {"key": key, "layout": layout}
        payload = {f"array_{i}": array for i, array in enumerate(arrays)}
        payload["meta"] = np.array(json.dumps(meta))
        buffer = io.BytesIO()
        np.savez(buffer, **payload)
        data = buffer.getvalue()
        digest = hashlib.sha256(data).hexdigest()
        # Artifact first, checksum second: any interruption leaves a
        # mismatched pair, which load_views treats as a miss.
        atomic_write(path, data)
        atomic_write(self._checksum_path(path), (digest + "\n").encode("ascii"))
        return path

    # -- load -----------------------------------------------------------

    def load_views(
        self, name: str, scale: int, seed: int
    ) -> tuple[CSRGraph, CSRGraph, CSRGraph] | None:
        """Load a cached generated case, or None on miss/stale/corrupt."""
        return self._load_case(self.path_for(name, scale, seed))

    def load_dataset_views(
        self, digest: str, seed: int
    ) -> tuple[CSRGraph, CSRGraph, CSRGraph] | None:
        """Load a file-backed case by content digest (None on any miss).

        A hit requires only that some file with these exact bytes was
        ingested before — the original path may have been renamed or
        deleted since; an edited file presents a new digest and misses.
        """
        return self._load_case(self.dataset_path_for(digest, seed))

    def _record_corrupt(
        self, path: Path, reason: str, **detail: object
    ) -> None:
        """Count one corrupt-artifact miss and keep its structured record."""
        self.corrupt += 1
        self.misses += 1
        self.corrupt_events.append(
            {"path": str(path), "reason": reason, **detail}
        )

    def _load_case(
        self, path: Path
    ) -> tuple[CSRGraph, CSRGraph, CSRGraph] | None:
        checksum_path = self._checksum_path(path)
        if not path.exists() and not checksum_path.exists():
            self.misses += 1
            return None
        # From here on the artifact (or its sidecar) exists, so any
        # failure is damage — a torn pair, a checksum mismatch, or an
        # unparseable payload — and counts as corruption, not coldness.
        if not path.exists():
            self._record_corrupt(path, "missing-artifact")
            return None
        if not checksum_path.exists():
            self._record_corrupt(path, "missing-checksum-sidecar")
            return None
        try:
            expected = checksum_path.read_text(encoding="ascii").strip()
            actual = _sha256(path)
            if actual != expected:
                self._record_corrupt(
                    path, "checksum-mismatch",
                    expected=expected, actual=actual,
                )
                return None
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"]))
                arrays = [
                    data[f"array_{i}"]
                    for i in range(sum(1 for k in data.files if k != "meta"))
                ]
            views = recompose_case(meta["layout"], arrays)
        except (OSError, ValueError, KeyError, GraphFormatError, json.JSONDecodeError) as exc:
            self._record_corrupt(
                path, "unparseable-artifact",
                error=f"{type(exc).__name__}: {exc}",
            )
            return None
        self.hits += 1
        return views
