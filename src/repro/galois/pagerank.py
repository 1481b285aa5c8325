"""Galois PageRank: Gauss-Seidel SpMV with in-place updates.

Galois updates scores *in place*: within an iteration, later vertices read
the already-updated scores of earlier ones (Gauss-Seidel), so information
propagates along the vertex order within a single sweep and the iteration
count drops versus Jacobi.  The paper measures the gain growing with graph
diameter — Galois PR is 3.6x GAP on Road — because each sweep can carry a
contribution across many hops.  We realize the in-place discipline with
*blocked* sweeps: vertices are processed in consecutive blocks, each block
reading the freshest scores (Jacobi within a block, Gauss-Seidel across
blocks), which preserves the faster convergence while staying vectorized —
:func:`repro.la.blocked_gauss_seidel` over equal blocks.
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..graphs import CSRGraph
from ..la import blocked_gauss_seidel

__all__ = ["gauss_seidel_pagerank"]

NUM_BLOCKS = 8


def gauss_seidel_pagerank(
    graph: CSRGraph,
    damping: float = 0.85,
    tolerance: float = 1e-4,
    max_iterations: int = 100,
) -> np.ndarray:
    """PageRank with blocked in-place (Gauss-Seidel) sweeps."""
    bounds = np.linspace(0, graph.num_vertices, NUM_BLOCKS + 1, dtype=np.int64)
    scores, iterations = blocked_gauss_seidel(
        graph.in_indptr,
        graph.in_indices,
        graph.out_degrees,
        bounds,
        damping,
        tolerance,
        max_iterations,
    )
    counters.add_iteration(iterations)
    counters.add_edges(iterations * graph.num_edges)
    return scores
