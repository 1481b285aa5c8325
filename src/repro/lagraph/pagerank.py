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

from ..graphs import CSRGraph
from ..la import pagerank
from ..semiring import PLUS_SECOND, Matrix, Vector, mxv

__all__ = ["lagraph_pagerank"]


def lagraph_pagerank(
    graph: CSRGraph,
    tolerance: float = 1e-4,
    max_iterations: int = 100,
) -> np.ndarray:
    """PageRank via ``r = teleport + d * (A' plus_second (r / d_out))``.

    The product is one :func:`repro.la.pagerank` block: the whole vector
    through ``mxv``, so the sweep is Jacobi.
    """
    n = graph.num_vertices
    transpose = Matrix.from_graph(graph).T

    def pull(importance: np.ndarray) -> np.ndarray:
        return mxv(transpose, Vector.full(n, importance), PLUS_SECOND).to_numpy()

    return pagerank(graph.out_degrees, [(0, n, pull)], tolerance, max_iterations)
