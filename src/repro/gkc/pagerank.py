"""GKC PageRank: Gauss-Seidel sweeps with cache-sized blocks.

Per Table III GKC runs a Gauss-Seidel SpMV.  The blocks here are sized to
the local-buffer discipline of the library (many small blocks, each
"fitting in cache"), so fresh scores propagate across blocks within one
sweep and the iteration count drops below Jacobi's —
:func:`repro.la.blocked_gauss_seidel` over fixed-size blocks.
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..graphs import CSRGraph
from ..la import blocked_gauss_seidel

__all__ = ["gkc_pagerank"]

# Cache-resident block size: the working-set discipline of GKC.
BLOCK_VERTICES = 1024
# A graph smaller than that many blocks' worth is still cut this many ways:
# one block would be Jacobi, not the Gauss-Seidel Table III names.
MIN_BLOCKS = 8


def gkc_pagerank(
    graph: CSRGraph,
    damping: float = 0.85,
    tolerance: float = 1e-4,
    max_iterations: int = 100,
) -> np.ndarray:
    """Blocked Gauss-Seidel PageRank; returns converged scores."""
    n = graph.num_vertices
    block = min(BLOCK_VERTICES, -(-n // MIN_BLOCKS))
    bounds = np.append(np.arange(0, n, block, dtype=np.int64), n)
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
