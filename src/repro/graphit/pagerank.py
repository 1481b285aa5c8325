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

from .. import counters
from ..graphitc import Schedule, SegmentedEdges, edgeset_apply_all
from ..graphs import CSRGraph

__all__ = ["graphit_pagerank"]


def graphit_pagerank(
    graph: CSRGraph,
    schedule: Schedule,
    damping: float = 0.85,
    tolerance: float = 1e-4,
    max_iterations: int = 100,
) -> np.ndarray:
    """Jacobi PageRank under the given schedule; returns scores."""
    n = graph.num_vertices
    base = (1.0 - damping) / n
    scores = np.full(n, 1.0 / n, dtype=np.float64)
    out_degrees = graph.out_degrees.astype(np.float64)
    has_out = out_degrees > 0
    safe_degrees = np.where(has_out, out_degrees, 1.0)
    new_rank = np.zeros(n, dtype=np.float64)
    contrib = np.zeros(n, dtype=np.float64)

    def accumulate(srcs: np.ndarray, dsts: np.ndarray, weights: np.ndarray) -> np.ndarray:
        del weights
        np.add.at(new_rank, dsts, contrib[srcs])
        return np.zeros(dsts.size, dtype=bool)

    # Cache-tiling preprocessing, built once and amortized over iterations
    # (the paper: "amortized within 2-5 iterations").
    segmented = (
        SegmentedEdges(graph, schedule.num_segments)
        if schedule.num_segments > 1
        else None
    )

    for _ in range(max_iterations):
        counters.add_iteration()
        np.divide(scores, safe_degrees, out=contrib)
        contrib[~has_out] = 0.0
        new_rank[:] = 0.0
        edgeset_apply_all(graph, accumulate, schedule, pull=True, segmented=segmented)
        updated = base + damping * new_rank
        change = float(np.abs(updated - scores).sum())
        scores[:] = updated
        if change < tolerance:
            break
    return scores
