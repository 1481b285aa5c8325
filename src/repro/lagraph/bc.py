"""LAGraph betweenness centrality: batch Brandes over ``plus_first``.

LAGraph runs all four GAP roots *simultaneously*: the frontier is a dense
n-by-4 block (one column per root) and every step is a product of the
adjacency with that block (``plus_first`` — sum the path counts of
predecessor frontier entries).
The paper describes the whole algorithm as "a mere 97 lines of very
readable code"; the batching is what makes BC the GraphBLAS success story
of the study (70–92% of the reference on the large graphs).

The dense-block products dispatch to SciPy's compiled sparse-dense matmul,
our stand-in for SuiteSparse's compiled kernels.  Per-level masking keeps
the accumulation on the BFS DAG: an edge contributes only when it connects
consecutive levels, exactly as in the scalar Brandes formulation.
"""

from __future__ import annotations

import numpy as np

from .. import counters
from ..graphs import CSRGraph
from ..semiring import Matrix

__all__ = ["lagraph_bc"]


def lagraph_bc(graph: CSRGraph, sources: np.ndarray) -> np.ndarray:
    """Batched Brandes from the given roots; returns accumulated scores."""
    n = graph.num_vertices
    sources = np.asarray(sources, dtype=np.int64)
    batch = sources.size
    matrix = Matrix.from_graph(graph)
    adjacency = matrix.to_scipy()       # A: backward pull
    adjacency_t = matrix.T.to_scipy()   # A': forward push, pre-linked, never built

    # Forward phase: levels[d] is an n-by-batch block of per-level path
    # counts (nonzero exactly at the vertices whose BFS depth is d).
    root_block = np.zeros((n, batch), dtype=np.float64)
    root_block[sources, np.arange(batch)] = 1.0
    visited = root_block > 0.0
    sigma = root_block.copy()
    levels: list[np.ndarray] = [root_block]

    frontier = root_block
    while True:
        counters.add_round()
        counters.add_edges(adjacency.nnz)
        frontier = adjacency_t @ frontier             # plus_first push
        frontier[visited] = 0.0                       # keep new vertices only
        if not frontier.any():
            break
        levels.append(frontier.copy())
        sigma += frontier
        visited |= frontier > 0.0

    # Backward phase: delta[v, b] accumulates the dependency of root b on v.
    delta = np.zeros((n, batch), dtype=np.float64)
    safe_sigma = np.where(sigma > 0.0, sigma, 1.0)
    for depth in range(len(levels) - 1, 0, -1):
        counters.add_round()
        counters.add_edges(adjacency.nnz)
        level_mask = levels[depth] > 0.0
        w = np.where(level_mask, (1.0 + delta) / safe_sigma, 0.0)
        pulled = adjacency @ w                        # t[u] = sum w[out(u)]
        prev_mask = levels[depth - 1] > 0.0
        delta[prev_mask] += (pulled * sigma)[prev_mask]

    # Brandes excludes each root from its own accumulation.
    delta[sources, np.arange(batch)] = 0.0
    return delta.sum(axis=1)
