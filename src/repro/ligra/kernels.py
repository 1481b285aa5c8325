"""The six GAP kernels written against the Ligra-style substrate.

Algorithm choices follow the classic frontier-based formulations that
distinguish this framework from the paper's six:

* BFS — parents via edgeMap with a first-writer update (the adaptive
  edgeMap *is* direction optimization);
* SSSP — frontier-based Bellman-Ford relaxation (no buckets: every round
  relaxes the whole improved frontier, paying extra work on weighted
  graphs but needing no priority structure);
* CC — min-label propagation over frontiers (only changed vertices stay
  active, unlike GraphIt's full-sweep variant);
* PR — Jacobi via a dense edgeMap each iteration;
* BC — Brandes with frontier-based forward and backward passes;
* TC — order-invariant merge counting (frontier machinery buys nothing
  for a topology-driven kernel).
"""

from __future__ import annotations

import numpy as np

from .. import counters
from ..graphs import (
    CSRGraph,
    degree_order_permutation,
    degree_skewed,
    forward_adjacency,
    permute,
)
from ..la import first_occurrence_mask, gather_edges_weighted, relax_minimum
from ..la.intersect import count_forward_triangles
from .substrate import VertexSubset, edge_map

__all__ = [
    "ligra_bfs",
    "ligra_sssp",
    "ligra_cc",
    "ligra_pr",
    "ligra_bc",
    "ligra_tc",
]


def ligra_bfs(graph: CSRGraph, source: int) -> np.ndarray:
    """Frontier BFS: parents claimed by the first updating edge."""
    n = graph.num_vertices
    parents = np.full(n, -1, dtype=np.int64)
    parents[source] = source

    def update(sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        modified = first_occurrence_mask(targets, n)
        parents[targets[modified]] = sources[modified]
        return modified

    def unvisited(vertices: np.ndarray) -> np.ndarray:
        return parents[vertices] < 0

    frontier = VertexSubset.single(n, source)
    while frontier:
        counters.add_round()
        frontier = edge_map(graph, frontier, update, cond=unvisited)
    return parents


def ligra_sssp(graph: CSRGraph, source: int) -> np.ndarray:
    """Frontier Bellman-Ford: rounds of relaxation over improved vertices."""
    n = graph.num_vertices
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0

    frontier = VertexSubset.single(n, source)
    while frontier:
        counters.add_round()
        members = frontier.ids()
        sources, targets, weights = gather_edges_weighted(
            graph.indptr, graph.indices, graph.weights, members
        )
        counters.add_edges(targets.size)
        if targets.size == 0:
            break
        candidate = dist[sources] + weights
        better = candidate < dist[targets]
        targets, candidate = targets[better], candidate[better]
        if targets.size == 0:
            break
        improved = relax_minimum(dist, targets, candidate, n)
        frontier = VertexSubset(n, ids=improved)
    return dist


def ligra_cc(graph: CSRGraph) -> np.ndarray:
    """Frontier-based min-label propagation (only changed labels stay hot)."""
    n = graph.num_vertices
    labels = np.arange(n, dtype=np.int64)

    def update(sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        candidate = labels[sources]
        better = candidate < labels[targets]
        np.minimum.at(labels, targets[better], candidate[better])
        return better

    frontier = VertexSubset.from_ids(n, np.arange(n, dtype=np.int64))
    while frontier:
        counters.add_iteration()
        forward = edge_map(graph, frontier, update)
        if graph.directed:
            backward = edge_map(graph.transpose(), frontier, update)
            merged = np.union1d(forward.ids(), backward.ids())
            frontier = VertexSubset.from_ids(n, merged)
        else:
            frontier = forward
    return labels


def ligra_pr(
    graph: CSRGraph,
    damping: float = 0.85,
    tolerance: float = 1e-4,
    max_iterations: int = 100,
) -> np.ndarray:
    """Jacobi PageRank: one dense edgeMap accumulation per iteration."""
    n = graph.num_vertices
    base = (1.0 - damping) / n
    scores = np.full(n, 1.0 / n, dtype=np.float64)
    out_degrees = graph.out_degrees.astype(np.float64)
    has_out = out_degrees > 0
    safe = np.where(has_out, out_degrees, 1.0)
    everything = VertexSubset.from_ids(n, np.arange(n, dtype=np.int64))
    incoming = np.zeros(n, dtype=np.float64)
    contrib = np.zeros(n, dtype=np.float64)

    def accumulate(sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        np.add.at(incoming, targets, contrib[sources])
        return np.zeros(targets.size, dtype=bool)

    for _ in range(max_iterations):
        counters.add_iteration()
        np.divide(scores, safe, out=contrib)
        contrib[~has_out] = 0.0
        incoming[:] = 0.0
        edge_map(graph, everything, accumulate)
        updated = base + damping * incoming
        change = float(np.abs(updated - scores).sum())
        scores[:] = updated
        if change < tolerance:
            break
    return scores


def ligra_bc(graph: CSRGraph, sources: np.ndarray) -> np.ndarray:
    """Brandes over frontiers (forward levels, backward dependency rounds)."""
    n = graph.num_vertices
    scores = np.zeros(n, dtype=np.float64)

    for root in np.asarray(sources, dtype=np.int64):
        depth = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n, dtype=np.float64)
        depth[root] = 0
        sigma[root] = 1.0
        levels: list[np.ndarray] = [np.array([root], dtype=np.int64)]

        def count_paths(srcs: np.ndarray, tgts: np.ndarray) -> np.ndarray:
            np.add.at(sigma, tgts, sigma[srcs])
            return first_occurrence_mask(tgts, n)

        def unvisited(vertices: np.ndarray) -> np.ndarray:
            return depth[vertices] < 0

        frontier = VertexSubset.single(n, int(root))
        level = 0
        while frontier:
            counters.add_round()
            frontier = edge_map(graph, frontier, count_paths, cond=unvisited)
            level += 1
            members = frontier.ids()
            if members.size:
                depth[members] = level
                levels.append(members)

        delta = np.zeros(n, dtype=np.float64)
        transpose = graph.transpose()
        for level_index in range(len(levels) - 1, 0, -1):
            counters.add_round()
            current = levels[level_index]

            def push_dependency(srcs: np.ndarray, tgts: np.ndarray) -> np.ndarray:
                predecessor = depth[tgts] == depth[srcs] - 1
                np.add.at(
                    delta,
                    tgts[predecessor],
                    (sigma[tgts[predecessor]] / sigma[srcs[predecessor]])
                    * (1.0 + delta[srcs[predecessor]]),
                )
                return np.zeros(tgts.size, dtype=bool)

            edge_map(transpose, VertexSubset.from_ids(n, current), push_dependency)
        delta[root] = 0.0
        scores += delta
    return scores


def ligra_tc(graph: CSRGraph, seed: int = 0) -> int:
    """Order-invariant triangle count with the degree-relabel heuristic."""
    if degree_skewed(graph, seed):
        counters.note("relabelled")
        graph = permute(graph, degree_order_permutation(graph, ascending=True))
    return count_forward_triangles(*forward_adjacency(graph))
