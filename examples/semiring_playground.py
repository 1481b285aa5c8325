"""Scenario: graph algorithms as sparse linear algebra (GraphBLAS style).

Demonstrates the paper's Section III-A directly: the same masked
matrix-vector products LAGraph builds its kernels from, written by hand.

* a push BFS level is literally ``q'<!pi> = q' * A`` over ``any_secondi``;
* single-source shortest paths relax over the ``min_plus`` tropical
  semiring;
* triangle counting is the masked product ``C<L> = L * U'`` over
  ``plus_pair``;
* one PageRank step is the pull product ``A' * (r / d_out)`` over
  ``plus_second``, which reads only the structure of ``A``.

Usage::

    python examples/semiring_playground.py
"""

from __future__ import annotations

import numpy as np

from repro import build_graph, weighted_version
from repro.semiring import (
    ANY_SECONDI,
    MIN_PLUS,
    PLUS_PAIR,
    PLUS_SECOND,
    Matrix,
    Vector,
    mxm_masked,
    mxv,
    reduce_matrix,
    vxm,
)


def bfs_by_hand(graph, source: int) -> np.ndarray:
    """The LAGraph BFS kernel, written out step by step."""
    n = graph.num_vertices
    adjacency = Matrix.from_graph(graph)
    pi = Vector.from_entries(n, np.array([source]), np.array([float(source)]))
    q = Vector.from_entries(n, np.array([source]), np.array([float(source)]))
    level = 0
    while q.nvals:
        level += 1
        # THE paper's expression: q'<!pi> = q' * A  (any_secondi semiring).
        q = vxm(q, adjacency, ANY_SECONDI, mask=pi, complement=True)
        pi.assign_vector(q)  # pi<q> = q
        print(f"  level {level}: discovered {q.nvals} vertices")
    parents = np.full(n, -1, dtype=np.int64)
    idx, vals = pi.entries()
    parents[idx] = vals.astype(np.int64)
    return parents


def main() -> None:
    graph = build_graph("kron", scale=9)
    source = int(np.flatnonzero(graph.out_degrees > 0)[0])

    print("push BFS as masked vector-matrix products:")
    parents = bfs_by_hand(graph, source)
    print(f"  -> reached {int((parents >= 0).sum())} of {graph.num_vertices}\n")

    print("SSSP relaxation over the min-plus tropical semiring:")
    weighted = weighted_version(graph)
    adjacency = Matrix.from_graph(weighted, use_weights=True)
    n = graph.num_vertices
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    frontier = Vector.from_entries(n, np.array([source]), np.array([0.0]))
    sweeps = 0
    while frontier.nvals:
        sweeps += 1
        relaxed = vxm(frontier, adjacency, MIN_PLUS)
        idx, vals = relaxed.entries()
        improved = vals < dist[idx]
        dist[idx[improved]] = vals[improved]
        frontier = Vector.from_entries(n, idx[improved], vals[improved])
    print(f"  converged after {sweeps} min-plus sweeps; "
          f"max distance {np.nanmax(dist[np.isfinite(dist)]):.0f}\n")

    print("triangle counting as  L = tril(A); U = triu(A); C<L> = L*U'; sum(C):")
    undirected = Matrix.from_graph(graph.to_undirected())
    lower = undirected.select_lower_triangle()
    upper = undirected.select_upper_triangle()
    closed = mxm_masked(lower, upper.T, PLUS_PAIR, mask=lower)
    print(f"  -> {int(reduce_matrix(closed))} triangles\n")

    print("one PageRank pull  r' = A' * (r / d_out)  over plus_second:")
    degrees = graph.out_degrees.astype(np.float64)
    scores = np.full(n, 1.0 / n)
    share = np.where(degrees > 0, scores / np.maximum(degrees, 1.0), 0.0)
    pulled = mxv(Matrix.from_graph(graph).T, Vector.full(n, share), PLUS_SECOND)
    print(f"  {pulled.nvals} vertices receive rank; "
          f"largest share {pulled.to_numpy().max():.5f}")


if __name__ == "__main__":
    main()
