"""LAGraph triangle counting: ``C<L> = L * U'`` over ``plus_pair``.

The paper gives the whole method in pseudo-MATLAB::

    L = tril(A, -1);  U = triu(A, 1);  C<L> = L * U';  ntri = sum(C)

Each masked entry ``C[i,j]`` counts vertices adjacent to both ``i`` and
``j`` with the ``pair`` multiply (always 1), i.e. the wedges closing edge
``(i, j)`` — summing gives the triangle count.  A degree-sort permutation
of A is optionally applied first, decided by a sampling heuristic, exactly
as in LAGraph.  The paper notes the whole C matrix is materialized and then
reduced (kernel fusion would give ~2x; not yet available in SuiteSparse) —
our SciPy-based ``mxm_masked`` has the same materialize-then-reduce shape.
"""

from __future__ import annotations

from ..graphs import CSRGraph
from ..la.intersect import relabel_permutation
from ..semiring import PLUS_PAIR, Matrix, mxm_masked, reduce_matrix

__all__ = ["lagraph_tc"]


def lagraph_tc(graph: CSRGraph, seed: int = 0) -> int:
    """Triangle count via the masked ``plus_pair`` matrix product."""
    matrix = Matrix.from_graph(graph)
    perm = relabel_permutation(graph, seed)
    if perm is not None:
        matrix = matrix.permuted(perm)
    lower = matrix.select_lower_triangle()
    upper = matrix.select_upper_triangle()
    closed = mxm_masked(lower, upper.T, PLUS_PAIR, mask=lower)
    return int(round(reduce_matrix(closed)))
