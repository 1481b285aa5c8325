"""LAGraph BFS: direction-optimizing, written as masked semiring products.

The essential kernel is the paper's ``q'<!pi> = q' * A`` — one masked
vector-matrix product over the ``any_secondi`` semiring per level:

* **push**: ``q'<!pi> = q' * A`` expands the sparse frontier;
* **pull**: ``q<!pi> = A' * q`` lets every undiscovered vertex scan its
  in-edges for any frontier member (the masked ``mxv`` computes only
  unvisited rows);
* ``pi<q> = q`` then records the parents found (``secondi`` made the value
  of each new frontier entry the id of the vertex it was reached from).

As in SuiteSparse, the frontier is converted to a *bitmap* (dense) for pull
steps and back to a *sparse list* for push steps, and those conversions are
part of the measured time — the paper calls this out explicitly.
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..graphs import CSRGraph
from ..la import DirectionOptimizer
from ..semiring import ANY_SECONDI, Matrix, Vector, mxv, vxm

__all__ = ["lagraph_bfs"]


def lagraph_bfs(graph: CSRGraph, source: int) -> np.ndarray:
    """Direction-optimizing BFS over GraphBLAS ops; returns parent array."""
    n = graph.num_vertices
    matrix = Matrix.from_graph(graph)
    transpose = matrix.T

    pi = Vector.from_entries(n, np.array([source]), np.array([float(source)]))
    q = Vector.from_entries(n, np.array([source]), np.array([float(source)]))
    out_degrees = graph.out_degrees
    policy = DirectionOptimizer(n, graph.num_edges)

    while q.nvals:
        counters.add_round()
        scout = policy.scout_count(out_degrees, q.indices())
        policy.charge(scout)
        # Either condition pulls: a costly push, or a frontier not yet small.
        if policy.wants_pull(scout) or not policy.frontier_is_small(q.nvals):
            q.to_dense()  # bitmap conversion, timed (see module docstring)
            q = mxv(transpose, q, ANY_SECONDI, mask=pi, complement=True)
        else:
            q.to_sparse()
            q = vxm(q, matrix, ANY_SECONDI, mask=pi, complement=True)
        if q.nvals == 0:
            break
        pi.assign_vector(q)

    parents = np.full(n, -1, dtype=np.int64)
    idx, vals = pi.entries()
    parents[idx] = vals.astype(np.int64)
    return parents
