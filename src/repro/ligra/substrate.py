"""Ligra-style substrate: vertexSubset + adaptive edgeMap / vertexMap.

The paper's discussion proposes extending the study's procedures to other
graph frameworks; this package is that extension, modeled on the
frontier-based abstraction of Shun & Blelloch's Ligra — historically the
framework that generalized Beamer's direction-optimizing BFS into a
reusable primitive:

* a ``VertexSubset`` holds the active vertices, physically sparse (index
  array) or dense (boolean array);
* ``edge_map(graph, subset, update, cond)`` applies ``update`` to every
  edge leaving the subset whose target passes ``cond``, returning the
  subset of updated targets — switching automatically between a sparse
  push traversal and a dense pull traversal by comparing the subset's
  out-edge volume against ``|E| / threshold``;
* ``vertex_map(subset, fn)`` applies a vertex function over the subset.

Update functions are vectorized: ``update(sources, targets) -> mask`` of
target entries actually modified (the CAS-success analog).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .. import counters
from ..graphs import CSRGraph
from ..la import gather_edges, unique_ids

__all__ = ["VertexSubset", "edge_map", "vertex_map", "EDGE_MAP_THRESHOLD"]

# Ligra's default: go dense when the frontier's edge volume exceeds m/20.
EDGE_MAP_THRESHOLD = 20

UpdateFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
CondFn = Callable[[np.ndarray], np.ndarray]


class VertexSubset:
    """A set of active vertices, sparse or dense at the engine's choice."""

    __slots__ = ("n", "_ids", "_dense")

    def __init__(self, n: int, ids: np.ndarray | None = None, dense: np.ndarray | None = None):
        self.n = int(n)
        self._ids = ids
        self._dense = dense

    @classmethod
    def from_ids(cls, n: int, ids: np.ndarray) -> "VertexSubset":
        return cls(n, ids=unique_ids(np.asarray(ids, dtype=np.int64), n))

    @classmethod
    def from_dense(cls, flags: np.ndarray) -> "VertexSubset":
        return cls(flags.size, dense=flags.astype(bool))

    @classmethod
    def single(cls, n: int, vertex: int) -> "VertexSubset":
        return cls.from_ids(n, np.array([vertex], dtype=np.int64))

    def size(self) -> int:
        """Number of member vertices."""
        if self._dense is not None:
            return int(self._dense.sum())
        return int(self._ids.size)

    def ids(self) -> np.ndarray:
        """Member ids as a sorted array."""
        if self._dense is not None:
            return np.flatnonzero(self._dense)
        return self._ids

    def dense(self) -> np.ndarray:
        """Members as a boolean flag array."""
        if self._dense is not None:
            return self._dense
        flags = np.zeros(self.n, dtype=bool)
        flags[self._ids] = True
        return flags

    def is_empty(self) -> bool:
        """Whether the subset has no members."""
        return self.size() == 0

    def __bool__(self) -> bool:
        return not self.is_empty()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VertexSubset(n={self.n}, size={self.size()})"


def edge_map(
    graph: CSRGraph,
    subset: VertexSubset,
    update: UpdateFn,
    cond: CondFn | None = None,
    threshold: int = EDGE_MAP_THRESHOLD,
) -> VertexSubset:
    """Apply ``update`` over the out-edges of ``subset`` (adaptive direction).

    Returns the subset of targets for which ``update`` reported a
    modification.  ``cond`` prunes targets before ``update`` runs (and, in
    dense mode, prunes which vertices scan their in-edges at all — Ligra's
    early-exit semantics).
    """
    frontier = subset.ids()
    out_volume = int(graph.out_degrees[frontier].sum()) + frontier.size
    use_dense = out_volume > graph.num_edges // threshold

    if use_dense:
        counters.note("edge_map_dense")
        candidates = np.arange(graph.num_vertices, dtype=np.int64)
        if cond is not None:
            candidates = candidates[cond(candidates)]
        targets, sources = gather_edges(graph.in_indptr, graph.in_indices, candidates)
        counters.add_edges(sources.size)
        in_frontier = subset.dense()[sources]
        sources, targets = sources[in_frontier], targets[in_frontier]
    else:
        counters.note("edge_map_sparse")
        sources, targets = gather_edges(graph.indptr, graph.indices, frontier)
        counters.add_edges(targets.size)
        if cond is not None and targets.size:
            keep = cond(targets)
            sources, targets = sources[keep], targets[keep]

    if targets.size == 0:
        return VertexSubset(graph.num_vertices, ids=np.empty(0, dtype=np.int64))
    modified = update(sources, targets)
    return VertexSubset.from_ids(graph.num_vertices, targets[modified])


def vertex_map(
    subset: VertexSubset, fn: Callable[[np.ndarray], np.ndarray | None]
) -> VertexSubset:
    """Apply ``fn`` over the subset; keep vertices where it returns True."""
    ids = subset.ids()
    counters.add_vertices(ids.size)
    result = fn(ids)
    if result is None:
        return subset
    return VertexSubset.from_ids(subset.n, ids[result])
