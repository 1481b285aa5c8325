"""LAGraph SSSP: delta-stepping over the min-plus tropical semiring.

Each relaxation is ``tReq = tmasked' * A`` over ``min_plus`` — the sparse
frontier of the current bucket, carrying tentative distances, is multiplied
into the weighted adjacency.  Bucket membership is recomputed by *selecting*
from the dense distance vector, as LAGraph does: that select is an O(n)
scan per inner round, which is why the paper's GraphBLAS SSSP collapses to
0.35% of the reference on Road (thousands of near-empty buckets, each
paying full-vector work).  We reproduce that cost structure deliberately.

The paper also notes the BFS-only bitmap format is not yet available to
SSSP in SuiteSparse; accordingly this implementation keeps its frontier
sparse and its distance vector dense, with no adaptive format switching.
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..graphs import CSRGraph
from ..la import unique_ids
from ..semiring import MIN_PLUS, Matrix, Vector, vxm

__all__ = ["lagraph_sssp"]


def lagraph_sssp(graph: CSRGraph, source: int, delta: int = 16) -> np.ndarray:
    """Delta-stepping SSSP via min-plus products; returns distances."""
    n = graph.num_vertices
    matrix = Matrix.from_graph(graph, use_weights=True)
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0

    bucket = 0
    max_bucket = 0
    while True:
        # Select the current bucket from the dense distance vector — the
        # O(n) scan described in the module docstring.
        counters.add_vertices(n)
        lo, hi = bucket * delta, (bucket + 1) * delta
        members = np.flatnonzero((dist >= lo) & (dist < hi))
        if members.size == 0:
            finite = np.isfinite(dist)
            remaining = dist[finite]
            beyond = remaining[remaining >= hi]
            if beyond.size == 0:
                break
            bucket = int(beyond.min() // delta)
            continue
        # Settle this bucket: relax until no member's distance improves.
        while members.size:
            counters.add_round()
            frontier = Vector.from_entries(n, members, dist[members])
            req = vxm(frontier, matrix, MIN_PLUS)
            idx, vals = req.entries()
            better = vals < dist[idx]
            idx, vals = idx[better], vals[better]
            np.minimum.at(dist, idx, vals)
            in_bucket = (dist[idx] >= lo) & (dist[idx] < hi)
            members = unique_ids(idx[in_bucket], n)
        max_bucket = max(max_bucket, bucket)
        bucket += 1
    counters.note("buckets_processed", float(max_bucket + 1))
    return dist
