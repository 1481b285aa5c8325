"""LAGraph PageRank: Jacobi iteration over the ``plus_second`` semiring.

Classic PageRank is ``plus_times`` against a column-normalized adjacency;
LAGraph instead divides the score vector by the out-degrees up front and
multiplies over ``plus_second`` so that only the *structure* of A is ever
read — the adjacency values are never touched (the paper highlights this
choice).  Like the GAP reference, the iteration is Jacobi: every update
reads the previous iteration's vector, and the paper notes an asynchronous
Gauss–Seidel variant is beyond what the GraphBLAS API can express.
"""

from __future__ import annotations

import numpy as np

from .. import counters
from ..graphs import CSRGraph
from ..semiring import PLUS_SECOND, Matrix, Vector, mxv

__all__ = ["lagraph_pagerank"]


def lagraph_pagerank(
    graph: CSRGraph,
    damping: float = 0.85,
    tolerance: float = 1e-4,
    max_iterations: int = 100,
) -> np.ndarray:
    """PageRank via ``r = teleport + d * (A' plus_second (r / d_out))``."""
    n = graph.num_vertices
    transpose = Matrix.from_graph(graph).T
    out_degrees = graph.out_degrees.astype(np.float64)
    safe_degrees = np.where(out_degrees > 0, out_degrees, 1.0)
    teleport = (1.0 - damping) / n
    scores = np.full(n, 1.0 / n, dtype=np.float64)

    for _ in range(max_iterations):
        counters.add_iteration()
        importance = np.where(out_degrees > 0, scores / safe_degrees, 0.0)
        pulled = mxv(transpose, Vector.full(n, importance), PLUS_SECOND)
        new_scores = teleport + damping * pulled.to_numpy()
        change = float(np.abs(new_scores - scores).sum())
        scores = new_scores
        if change < tolerance:
            break
    return scores
