"""NWGraph SSSP: bulk-synchronous delta-stepping over edge-tuple ranges.

Managed in the original through TBB primitives rather than execution
policies; algorithmically it is plain delta-stepping — no bucket fusion —
so every same-bucket refill costs another synchronized sweep, which is why
the paper's NWGraph SSSP falls to 4.6% of reference on Road while staying
competitive (114%) on Kron.
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..graphs import CSRGraph
from ..la import unique_ids
from ..ranges import AdjacencyView

__all__ = ["nwgraph_sssp"]


def nwgraph_sssp(graph: CSRGraph, source: int, delta: int = 16) -> np.ndarray:
    """Delta-stepping over (target, weight) tuple ranges; returns distances."""
    n = graph.num_vertices
    view = AdjacencyView.out_edges(graph)
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    buckets: dict[int, list[np.ndarray]] = {0: [np.array([source], dtype=np.int64)]}

    while buckets:
        current = min(buckets)
        pending = buckets.pop(current)
        while pending:
            counters.add_round()
            members = unique_ids(np.concatenate(pending), n)
            pending = []
            members = members[(dist[members] // delta).astype(np.int64) == current]
            if members.size == 0:
                continue
            srcs, tgts, weights = view.expand_with_properties(members)
            counters.add_edges(tgts.size)
            if tgts.size == 0:
                continue
            candidate = dist[srcs] + weights
            better = candidate < dist[tgts]
            tgts, candidate = tgts[better], candidate[better]
            if tgts.size == 0:
                continue
            np.minimum.at(dist, tgts, candidate)
            improved = unique_ids(tgts, n)
            landing = (dist[improved] // delta).astype(np.int64)
            for bucket in np.unique(landing):
                group = improved[landing == bucket]
                if bucket == current:
                    pending.append(group)
                else:
                    buckets.setdefault(int(bucket), []).append(group)
    return dist
