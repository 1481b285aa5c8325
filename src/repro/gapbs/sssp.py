"""GAP reference SSSP: delta-stepping with bucket fusion.

Delta-stepping (Meyer & Sanders) partitions tentative distances into
buckets of width ``delta`` and settles buckets in priority order.  The GAP
reference additionally incorporates GraphIt's *bucket fusion* optimization
(Zhang et al., CGO'20): when relaxations re-populate the **current** bucket,
the refill is processed immediately in a tight local loop instead of paying
a global synchronization round.  Without fusion, every same-bucket refill
costs a full round — on a high-diameter graph like Road that is thousands
of extra rounds, which is exactly the effect the paper measures.

``delta_stepping(..., bucket_fusion=False)`` exposes the unfused variant
for the ablation bench.
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..graphs import CSRGraph
from ..la import gather_edges_weighted, relax_minimum, unique_ids

__all__ = ["delta_stepping"]

# When a same-bucket refill is larger than this, a real implementation
# re-balances across threads (a synchronization); fused processing only
# happens below the threshold, per the GraphIt paper's load-balance guard.
FUSION_THRESHOLD = 1024


def _relax(
    graph: CSRGraph, frontier: np.ndarray, dist: np.ndarray
) -> np.ndarray:
    """Relax all out-edges of ``frontier``; returns vertices that improved."""
    sources, targets, weights = gather_edges_weighted(
        graph.indptr, graph.indices, graph.weights, frontier
    )
    counters.add_edges(targets.size)
    if targets.size == 0:
        return np.empty(0, dtype=np.int64)
    candidate = dist[sources] + weights
    better = candidate < dist[targets]
    targets, candidate = targets[better], candidate[better]
    return relax_minimum(dist, targets, candidate, graph.num_vertices)


def delta_stepping(
    graph: CSRGraph,
    source: int,
    delta: int = 16,
    bucket_fusion: bool = True,
) -> np.ndarray:
    """Compute shortest-path distances from ``source``.

    Args:
        graph: A weighted graph (``graph.weights`` must be set).
        source: Root vertex.
        delta: Bucket width; GAP allows tuning this per graph even under
            Baseline rules because it changes performance by orders of
            magnitude.
        bucket_fusion: Process same-bucket refills immediately (the GAP
            reference behaviour).  Disable for the ablation.

    Returns:
        float64 distances, ``inf`` for unreachable vertices.
    """
    n = graph.num_vertices
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    # Buckets stored sparsely: map bucket index -> list of member arrays
    # (lazy deletion: membership re-checked against dist when popped).
    buckets: dict[int, list[np.ndarray]] = {0: [np.array([source], dtype=np.int64)]}

    while buckets:
        current = min(buckets)
        pending = buckets.pop(current)
        while pending:
            counters.add_round()
            members = unique_ids(np.concatenate(pending), n)
            pending = []
            # Lazy deletion: keep only vertices still in this bucket.
            in_bucket = (dist[members] // delta).astype(np.int64) == current
            frontier = members[in_bucket]
            if frontier.size == 0:
                continue
            improved = _relax(graph, frontier, dist)
            if improved.size == 0:
                continue
            new_bucket = (dist[improved] // delta).astype(np.int64)
            same = new_bucket == current
            refills = improved[same]
            others, other_buckets = improved[~same], new_bucket[~same]
            for later in np.unique(other_buckets):
                buckets.setdefault(int(later), []).append(others[other_buckets == later])
            if refills.size == 0:
                continue
            if bucket_fusion and refills.size <= FUSION_THRESHOLD:
                # Fused: drain the refill right now without a global round.
                while refills.size and refills.size <= FUSION_THRESHOLD:
                    counters.note("fused_rounds")
                    improved = _relax(graph, refills, dist)
                    nb = (dist[improved] // delta).astype(np.int64)
                    same = nb == current
                    others, other_buckets = improved[~same], nb[~same]
                    for later in np.unique(other_buckets):
                        buckets.setdefault(int(later), []).append(others[other_buckets == later])
                    refills = improved[same]
                if refills.size:
                    pending.append(refills)
            else:
                pending.append(refills)
    return dist
