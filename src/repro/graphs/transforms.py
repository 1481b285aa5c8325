"""Graph transforms used by the frameworks' preprocessing heuristics.

The paper's frameworks relabel (reorder) graphs before triangle counting,
block edges for load balancing, and extract induced subgraphs for cache
tiling.  These shared transforms live here so each framework package stays
focused on its kernels.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphFormatError
from .csr import CSRGraph
from .edgelist import EdgeList

__all__ = [
    "permute",
    "degree_order_permutation",
    "relabel_by_degree",
    "degree_skewed",
    "forward_adjacency",
    "induced_subgraph",
    "lower_triangle_counts",
]


RELABEL_SAMPLES = 1000
# Degree-skew threshold: relabel when the sampled mean degree is this many
# times the sampled median (gapbs uses the same style of sample test).
SKEW_RATIO = 2.0


def _relabel_rows(
    num_vertices: int,
    degrees: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray | None,
    perm: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """One CSR side under ``perm``: rows renumbered, each row re-sorted."""
    rows = perm[np.repeat(np.arange(num_vertices, dtype=np.int64), degrees)]
    cols = perm[indices]
    # The input is deduplicated, so the keys are distinct and one sort orders it.
    order = np.argsort(rows * num_vertices + cols)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_vertices), out=indptr[1:])
    return indptr, cols[order], None if weights is None else weights[order]


def permute(graph: CSRGraph, perm: np.ndarray) -> CSRGraph:
    """Relabel vertices: vertex ``v`` becomes ``perm[v]``.

    Weights travel with their edges.  A CSR graph is already free of
    self-loops and duplicates, so the result is built CSR -> CSR with one
    sort per stored direction and adjacency stays sorted.
    """
    n = graph.num_vertices
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (n,):
        raise GraphFormatError(
            f"permutation length {perm.shape} != num_vertices {n}"
        )
    if not np.array_equal(np.sort(perm), np.arange(n)):
        raise GraphFormatError("perm is not a permutation of 0..n-1")
    out = _relabel_rows(n, graph.out_degrees, graph.indices, graph.weights, perm)
    if graph.directed:
        into = _relabel_rows(
            n, graph.in_degrees, graph.in_indices, graph.in_weights, perm
        )
    else:
        into = out
    return CSRGraph(n, *out, *into, directed=graph.directed)


def degree_order_permutation(graph: CSRGraph, ascending: bool = True) -> np.ndarray:
    """Permutation that renumbers vertices by out-degree.

    ``ascending=True`` gives low-degree vertices small ids, the ordering used
    by degree-based triangle counting (each triangle is then found from its
    lowest-degree corner, which minimizes intersection work on skewed
    graphs).  Ties break by original id so the permutation is deterministic.
    """
    degrees = graph.out_degrees
    key = degrees if ascending else -degrees
    order = np.lexsort((np.arange(graph.num_vertices), key))
    perm = np.empty(graph.num_vertices, dtype=np.int64)
    perm[order] = np.arange(graph.num_vertices)
    return perm


def relabel_by_degree(graph: CSRGraph, ascending: bool = True) -> tuple[CSRGraph, np.ndarray]:
    """Relabel a graph by degree; returns ``(new_graph, perm)``."""
    perm = degree_order_permutation(graph, ascending=ascending)
    return permute(graph, perm), perm


def induced_subgraph(graph: CSRGraph, vertices: np.ndarray) -> tuple[CSRGraph, np.ndarray]:
    """Induced subgraph on ``vertices``; returns ``(subgraph, mapping)``.

    ``mapping[i]`` is the original id of subgraph vertex ``i``.  Used by the
    cache-tiling schedules (GraphIt Optimized PR) that partition the graph
    into cache-sized segments.
    """
    vertices = np.unique(np.asarray(vertices, dtype=np.int64))
    if vertices.size and (vertices[0] < 0 or vertices[-1] >= graph.num_vertices):
        raise GraphFormatError("subgraph vertex id out of range")
    remap = np.full(graph.num_vertices, -1, dtype=np.int64)
    remap[vertices] = np.arange(vertices.size)
    src, dst = graph.edge_array()
    keep = (remap[src] >= 0) & (remap[dst] >= 0)
    weights = graph.weights[keep] if graph.weights is not None else None
    edges = EdgeList(vertices.size, remap[src[keep]], remap[dst[keep]], weights)
    # Build directed regardless of the parent graph: for an undirected parent
    # both orientations survive the filter, so the result is still symmetric.
    sub = CSRGraph.from_edge_list(edges, directed=True)
    if not graph.directed:
        sub = CSRGraph(
            sub.num_vertices,
            sub.indptr,
            sub.indices,
            sub.weights,
            sub.indptr,
            sub.indices,
            sub.weights,
            directed=False,
        )
    return sub, vertices


def lower_triangle_counts(graph: CSRGraph) -> np.ndarray:
    """Per-vertex count of neighbors with a smaller id.

    This is the row-degree of ``tril(A, -1)``, used by triangle-counting
    implementations to estimate work per vertex.
    """
    src, dst = graph.edge_array()
    lower = src > dst
    return np.bincount(src[lower], minlength=graph.num_vertices)


def degree_skewed(graph: CSRGraph, seed: int = 0) -> bool:
    """Sampling heuristic: is the degree distribution skewed enough?

    The one test every framework's TC (and Galois' bulk-synchronous vs
    asynchronous choice) uses to decide whether a degree relabel pays:
    sampled mean degree above ``SKEW_RATIO`` times the sampled median.
    """
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    sample = graph.out_degrees[rng.integers(0, n, size=min(RELABEL_SAMPLES, n))]
    return float(sample.mean()) > SKEW_RATIO * max(float(np.median(sample)), 1.0)


def forward_adjacency(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """CSR of edges oriented low id -> high id (each edge kept once)."""
    src, dst = graph.edge_array()
    keep = dst > src
    indptr = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[keep], minlength=graph.num_vertices), out=indptr[1:])
    # edge_array emits rows in sorted order, so dst is already row-sorted.
    return indptr, dst[keep]
