"""NWGraph PageRank: Gauss-Seidel sweeps over in-edge ranges.

The paper: "NWGraph used the Gauss-Seidel algorithm and saw performance in
line with that observed for the other frameworks using that algorithm."
As with Galois, the in-place discipline is realized with blocked sweeps —
each block pulls the freshest scores —
:func:`repro.la.blocked_gauss_seidel` over equal vertex blocks of the
in-edge CSR arrays.
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..graphs import CSRGraph
from ..la import blocked_gauss_seidel

__all__ = ["nwgraph_pagerank"]

NUM_BLOCKS = 8


def nwgraph_pagerank(
    graph: CSRGraph,
    damping: float = 0.85,
    tolerance: float = 1e-4,
    max_iterations: int = 100,
) -> np.ndarray:
    """Blocked Gauss-Seidel PageRank; returns converged scores."""
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
