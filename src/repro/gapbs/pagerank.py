"""GAP reference PageRank: pull-based Jacobi SpMV iteration.

Each iteration computes, for every vertex, the damped sum of the previous
iteration's contributions of its in-neighbors (a sparse matrix-vector
product against the transposed adjacency).  All updates read the *previous*
vector — the Jacobi discipline — which the paper contrasts with the
Gauss-Seidel variants used by Galois, GKC, and NWGraph that converge in
fewer iterations.  Convergence is declared when the L1 norm of the change
drops below the tolerance (the GAP reference's criterion).
"""

from __future__ import annotations

import numpy as np

from .. import counters
from ..graphs import CSRGraph
from ..la import plus_times_operator

__all__ = ["jacobi_pagerank"]


def jacobi_pagerank(
    graph: CSRGraph,
    damping: float = 0.85,
    tolerance: float = 1e-4,
    max_iterations: int = 100,
) -> np.ndarray:
    """PageRank by pull-based Jacobi iteration; returns float64 scores.

    Vertices with no out-edges contribute nothing (the GAP reference's
    dangling-mass behaviour); every framework here follows the same
    convention so results are comparable.
    """
    n = graph.num_vertices
    base = (1.0 - damping) / n
    scores = np.full(n, 1.0 / n, dtype=np.float64)
    out_degrees = graph.out_degrees.astype(np.float64)
    safe_degrees = np.where(out_degrees > 0, out_degrees, 1.0)
    # The pull SpMV over the in-adjacency, built once and applied every
    # Jacobi sweep.
    pull = plus_times_operator(graph.in_indptr, graph.in_indices)

    for _ in range(max_iterations):
        counters.add_iteration()
        counters.add_edges(graph.num_edges)
        contrib = np.where(out_degrees > 0, scores / safe_degrees, 0.0)
        new_scores = base + damping * pull(contrib)
        change = float(np.abs(new_scores - scores).sum())
        scores = new_scores
        if change < tolerance:
            break
    return scores
