"""Galois BFS: bulk-synchronous direction-optimizing + asynchronous variant.

Per Table III, Galois' BFS is direction-optimizing with an additional
asynchronous variant.  The bulk-synchronous one is the reference's
traversal under the reference's scout rule (:mod:`repro.la.direction`).
The async variant is a label-correcting push BFS over a sparse chunked
worklist: depth updates propagate eagerly without round barriers, which
pays off on high-diameter graphs (the paper measures Galois 3.6x faster
than GAP on Road) and wastes work on low-diameter ones (the Baseline Urand
regression the paper describes).
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..graphs import CSRGraph
from ..la import DirectionOptimizer, direction_optimizing_traversal, gather_edges
from ..worklist import for_each_eager

__all__ = ["sync_bfs", "async_bfs"]


def sync_bfs(
    graph: CSRGraph, source: int, pull_early_exit: bool = False
) -> np.ndarray:
    """Bulk-synchronous direction-optimizing BFS (same algorithm as GAP).

    ``pull_early_exit=True`` (Optimized mode) lets each unvisited row stop
    scanning its in-adjacency at the first frontier parent; parents are
    identical either way, only the edges-examined counter shrinks.
    """
    parents, steps = direction_optimizing_traversal(
        graph.indptr,
        graph.indices,
        graph.in_indptr,
        graph.in_indices,
        source,
        DirectionOptimizer(graph.num_vertices, graph.num_edges),
        pull_early_exit,
    )
    counters.add_steps(steps)
    return parents


def async_bfs(graph: CSRGraph, source: int) -> np.ndarray:
    """Asynchronous label-correcting BFS over a sparse chunked worklist.

    A per-vertex on-worklist flag suppresses duplicate queue entries (the
    Galois discipline); a re-improved vertex that is already queued will
    read its freshest depth when its chunk is processed.
    """
    n = graph.num_vertices
    depth = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    parents = np.full(n, -1, dtype=np.int64)
    queued = np.zeros(n, dtype=bool)
    depth[source] = 0
    parents[source] = source
    queued[source] = True

    def relax(chunk: np.ndarray) -> np.ndarray:
        queued[chunk] = False
        srcs, tgts = gather_edges(graph.indptr, graph.indices, chunk)
        counters.add_edges(tgts.size)
        if tgts.size == 0:
            return tgts
        candidate = depth[srcs] + 1
        better = candidate < depth[tgts]
        srcs, tgts, candidate = srcs[better], tgts[better], candidate[better]
        if tgts.size == 0:
            return tgts
        # Per target, keep the best (then first) improving candidate.
        order = np.lexsort((srcs, candidate, tgts))
        tgts_sorted = tgts[order]
        keep = np.concatenate([[True], tgts_sorted[1:] != tgts_sorted[:-1]])
        winners = order[keep]
        improving = candidate[winners] < depth[tgts[winners]]
        winners = winners[improving]
        depth[tgts[winners]] = candidate[winners]
        parents[tgts[winners]] = srcs[winners]
        activated = tgts[winners]
        fresh = ~queued[activated]
        queued[activated[fresh]] = True
        return activated[fresh]

    for_each_eager(np.array([source], dtype=np.int64), relax)
    return parents
