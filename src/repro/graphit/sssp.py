"""GraphIt SSSP: delta-stepping on the bucketed priority queue with fusion.

Bucket fusion is GraphIt's contribution (Zhang et al., CGO'20) and the
paper's Road SSSP story: before GAP adopted it, GraphIt was >7x faster
there.  The relaxation itself is :func:`repro.la.relax`, the push-mode
relaxation every SSSP here shares; the ordering and fusion live in
:class:`BucketPriorityQueue`.
"""

from __future__ import annotations

import numpy as np

from .. import counters
from ..graphitc import BucketPriorityQueue, Schedule
from ..graphs import CSRGraph
from ..la import relax

__all__ = ["graphit_sssp"]


def graphit_sssp(graph: CSRGraph, source: int, schedule: Schedule) -> np.ndarray:
    """Delta-stepping SSSP under the given schedule; returns distances."""
    n = graph.num_vertices
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0

    def relax_from(members: np.ndarray) -> np.ndarray:
        improved, examined = relax(
            graph.indptr, graph.indices, graph.weights, members, dist
        )
        counters.add_edges(examined)
        return improved

    queue = BucketPriorityQueue(fusion=schedule.bucket_fusion)
    queue.push(np.array([source], dtype=np.int64), np.array([0], dtype=np.int64))
    queue.process(relax_from, dist, schedule.delta)
    return dist
