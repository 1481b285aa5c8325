"""GraphIt PageRank: Jacobi SpMV, optionally cache-tiled (Optimized).

The algorithm is a topology-driven full-edge apply per iteration (Jacobi,
per Table III).  The Optimized schedule tiles the graph into cache-sized
segments (Zhang et al., "Making caches work for graph analytics"): the
paper reports the preprocessing amortizes within 2-5 of PR's ~20
iterations.  The tiling's *locality* benefit is a hardware effect this
substrate cannot express — the segmentation and its bookkeeping are
faithfully executed and counted, and EXPERIMENTS.md discusses the
divergence.
"""

from __future__ import annotations

import numpy as np

from ..graphitc import Schedule, SegmentedEdges, edgeset_apply_all
from ..graphs import CSRGraph
from ..la import pagerank

__all__ = ["graphit_pagerank"]


def graphit_pagerank(
    graph: CSRGraph,
    schedule: Schedule,
    tolerance: float = 1e-4,
    max_iterations: int = 100,
) -> np.ndarray:
    """Jacobi PageRank under the given schedule; returns scores.

    The product is one :func:`repro.la.pagerank` block: a pull
    ``edgeset_apply_all`` accumulating every edge's contribution.
    """
    n = graph.num_vertices
    new_rank = np.zeros(n, dtype=np.float64)
    # Cache-tiling preprocessing, built once and amortized over iterations
    # (the paper: "amortized within 2-5 iterations").
    segmented = (
        SegmentedEdges(graph, schedule.num_segments)
        if schedule.num_segments > 1
        else None
    )

    def pull(contrib: np.ndarray) -> np.ndarray:
        def accumulate(srcs: np.ndarray, dsts: np.ndarray, weights: np.ndarray) -> np.ndarray:
            del weights
            np.add.at(new_rank, dsts, contrib[srcs])
            return np.zeros(dsts.size, dtype=bool)

        new_rank[:] = 0.0
        edgeset_apply_all(graph, accumulate, schedule, pull=True, segmented=segmented)
        return new_rank

    return pagerank(graph.out_degrees, [(0, n, pull)], tolerance, max_iterations)
