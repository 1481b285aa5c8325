"""GKC SSSP: bulk-synchronous delta-stepping with buffered buckets.

Straightforward delta-stepping — no bucket fusion — with the improved
vertices produced into local buffers before landing in their buckets.  The
paper's numbers (113–119% on Web/Urand, 18% on Road) reflect exactly this
combination: excellent raw per-edge throughput, but every same-bucket
refill on a high-diameter graph pays a synchronization round.
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..graphs import CSRGraph
from ..la import gather_edges_weighted, unique_ids
from .buffers import LocalBuffer

__all__ = ["gkc_sssp"]


def gkc_sssp(graph: CSRGraph, source: int, delta: int = 16) -> np.ndarray:
    """Delta-stepping with buffered bucket insertion; returns distances."""
    n = graph.num_vertices
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    buckets: dict[int, LocalBuffer] = {}
    initial = LocalBuffer()
    initial.push(np.array([source], dtype=np.int64))
    buckets[0] = initial

    while buckets:
        current = min(buckets)
        members = buckets.pop(current).drain()
        while members.size:
            counters.add_round()
            members = unique_ids(members, n)
            members = members[(dist[members] // delta).astype(np.int64) == current]
            if members.size == 0:
                break
            srcs, tgts, weights = gather_edges_weighted(
                graph.indptr, graph.indices, graph.weights, members
            )
            counters.add_edges(tgts.size)
            candidate = dist[srcs] + weights
            better = candidate < dist[tgts]
            tgts, candidate = tgts[better], candidate[better]
            if tgts.size == 0:
                break
            np.minimum.at(dist, tgts, candidate)
            improved = unique_ids(tgts, n)
            landing = (dist[improved] // delta).astype(np.int64)
            members = improved[landing == current]
            for bucket in np.unique(landing[landing != current]):
                target = buckets.setdefault(int(bucket), LocalBuffer())
                target.push(improved[landing == bucket])
    return dist
