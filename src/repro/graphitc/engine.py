"""GraphIt execution engine: interprets schedules over edgeset.apply.

The *algorithm* side of a GraphIt program reduces to two constructs:

* ``edgeset_apply_from`` — apply a vectorized edge function to the edges
  leaving a frontier ("from" set), optionally restricted by a destination
  filter; returns the set of modified destinations (``applyModified``);
* ``edgeset_apply_all`` — apply an edge function to every edge (topology-
  driven operators like PageRank), optionally cache-tiled into segments.

The *schedule* decides direction (sparse push, dense pull, or the hybrid
that picks per step), frontier layout, deduplication, and tiling.  Edge
functions receive ``(sources, destinations, weights)`` — ``weights`` is
``None`` on an unweighted graph — and return the mask of destination entries
they modified (``applyModified``), or ``None`` when no output set is wanted
(plain ``apply``); state lives in the caller's arrays, mirroring GraphIt's
vertex-data model where the compiler inserts the atomics.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .. import counters
from ..graphs import CSRGraph
from ..la import gather_edges, gather_edges_weighted, unique_ids
from .schedule import Direction, FrontierLayout, Schedule
from .vertexset import VertexSet

__all__ = ["edgeset_apply_from", "edgeset_apply_all", "SegmentedEdges"]

# Hybrid threshold, as in GraphIt's generated code: pull when the frontier's
# outgoing-edge volume exceeds this fraction of all edges.
HYBRID_EDGE_FRACTION = 20

EdgeFunction = Callable[
    [np.ndarray, np.ndarray, "np.ndarray | None"], "np.ndarray | None"
]


def _expand(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray | None,
    vertices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    if weights is None:
        return *gather_edges(indptr, indices, vertices), None
    sources, targets, edge_weights = gather_edges_weighted(
        indptr, indices, weights, vertices
    )
    return sources, targets, edge_weights.astype(np.float64)


def edgeset_apply_from(
    graph: CSRGraph,
    frontier: VertexSet,
    apply_fn: EdgeFunction,
    schedule: Schedule,
    to_filter: np.ndarray | None = None,
) -> VertexSet | None:
    """Apply ``apply_fn`` to the edges leaving ``frontier``.

    Args:
        graph: Input graph.
        frontier: The "from" vertexset.
        apply_fn: Vectorized edge function; returns the boolean mask of
            modified destination entries.
        schedule: Direction / layout / dedup decisions.
        to_filter: Optional boolean array over vertices; only edges whose
            destination passes the filter are applied (GraphIt's ``to``
            clause, e.g. "not yet visited").

    Returns:
        The vertexset of modified destinations, in the schedule's layout;
        ``None`` when ``apply_fn`` returned no mask.
    """
    direction = schedule.direction
    if direction is Direction.DENSE_PULL_SPARSE_PUSH:
        scout = int(graph.out_degrees[frontier.ids()].sum()) + frontier.size()
        use_pull = scout > graph.num_edges // HYBRID_EDGE_FRACTION
        direction = Direction.DENSE_PULL if use_pull else Direction.SPARSE_PUSH

    if direction is Direction.DENSE_PULL:
        # Iterate candidate destinations, scanning in-edges for frontier hits.
        bits = frontier.to_layout(FrontierLayout.BITVECTOR)
        candidates = (
            np.flatnonzero(to_filter)
            if to_filter is not None
            else np.arange(graph.num_vertices, dtype=np.int64)
        )
        dsts, srcs, weights = _expand(
            graph.in_indptr, graph.in_indices, graph.in_weights, candidates
        )
        counters.add_edges(srcs.size)
        hits = bits.contains(srcs)
        srcs, dsts = srcs[hits], dsts[hits]
        weights = None if weights is None else weights[hits]
    else:
        members = frontier.to_layout(FrontierLayout.SPARSE_ARRAY).ids()
        srcs, dsts, weights = _expand(graph.indptr, graph.indices, graph.weights, members)
        counters.add_edges(srcs.size)
        if to_filter is not None and dsts.size:
            allowed = to_filter[dsts]
            srcs, dsts = srcs[allowed], dsts[allowed]
            weights = None if weights is None else weights[allowed]

    if dsts.size == 0:
        return VertexSet(graph.num_vertices, schedule.frontier)
    modified = apply_fn(srcs, dsts, weights)
    if modified is None:
        return None
    out = dsts[modified]
    if schedule.deduplicate:
        out = unique_ids(out, graph.num_vertices)
    return VertexSet.from_ids(graph.num_vertices, out, schedule.frontier)


class SegmentedEdges:
    """Cache-tiled edge partition (GraphIt's Optimized-PR preprocessing).

    The graph's edges are partitioned by *source* range into segments whose
    source-value working set would fit in cache.  Real GraphIt builds these
    subgraphs once and amortizes the cost within 2-5 PR iterations (the
    paper's Section V-D); likewise this structure is built once per kernel
    invocation and reused every iteration.
    """

    def __init__(self, graph: CSRGraph, num_segments: int, pull: bool = True) -> None:
        del pull  # the edge set is the same either way; see below
        # Edges sorted by source are exactly the out-CSR's storage order, so
        # the partition falls out of ``indptr`` directly — no argsort.  (The
        # historical construction expanded the in-adjacency and stably
        # re-sorted it by source, producing this same edge sequence at
        # O(E log E) — enough to eat the tiling's amortization budget.)
        sources = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64), np.diff(graph.indptr)
        )
        targets = graph.indices
        boundaries = np.linspace(
            0, graph.num_vertices, num_segments + 1, dtype=np.int64
        )
        cuts = graph.indptr[boundaries]
        self.segments: list[tuple[np.ndarray, np.ndarray]] = [
            (sources[cuts[i]: cuts[i + 1]], targets[cuts[i]: cuts[i + 1]])
            for i in range(num_segments)
            if cuts[i + 1] > cuts[i]
        ]
        self.num_edges = int(sources.size)

    def apply(self, apply_fn: EdgeFunction) -> None:
        """Run the edge function segment by segment."""
        counters.add_edges(self.num_edges)
        for sources, targets in self.segments:
            counters.note("cache_segments")
            apply_fn(sources, targets, None)


def edgeset_apply_all(
    graph: CSRGraph,
    apply_fn: EdgeFunction,
    schedule: Schedule,
    pull: bool = True,
    segmented: SegmentedEdges | None = None,
) -> None:
    """Apply ``apply_fn`` to every edge (topology-driven operators).

    With ``schedule.num_segments > 1`` the edges are processed through a
    :class:`SegmentedEdges` tiling; callers running many sweeps should
    build it once and pass it in (the amortization the paper describes).
    """
    if schedule.num_segments > 1:
        if segmented is None:
            segmented = SegmentedEdges(graph, schedule.num_segments, pull)
        segmented.apply(apply_fn)
        return
    indptr = graph.in_indptr if pull else graph.indptr
    indices = graph.in_indices if pull else graph.indices
    all_vertices = np.arange(graph.num_vertices, dtype=np.int64)
    counters.add_edges(indices.size)
    owners, others, weights = _expand(indptr, indices, None, all_vertices)
    apply_fn(others if pull else owners, owners if pull else others, weights)
