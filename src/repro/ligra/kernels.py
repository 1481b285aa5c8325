"""Five of the six GAP kernels written against the shared frontier operator.

Frontiers are sorted int64 id arrays, as in :mod:`repro.la.direction`, and
every edge pass is one call of :func:`repro.la.edge_map` (Ligra's
``edgeMap``, volume rule included).  Algorithm choices follow the classic
frontier-based formulations that distinguish this framework from the
paper's six:

* BFS — parents via edgeMap with a first-writer update (the adaptive
  edgeMap *is* direction optimization);
* SSSP — frontier-based Bellman-Ford relaxation through
  :func:`repro.la.relax` (no buckets: every round relaxes the whole
  improved frontier, paying extra work on weighted graphs but needing no
  priority structure);
* CC — min-label propagation over frontiers (only changed vertices stay
  active, unlike GraphIt's full-sweep variant);
* PR — Jacobi: :func:`repro.la.pagerank` over one dense edgeMap block;
* BC — Brandes with frontier-based forward and backward passes.

TC is GAP's (frontier machinery buys nothing for a topology-driven
kernel), so the framework calls it and nothing here restates it.
"""

from __future__ import annotations

import numpy as np

from .. import counters
from ..graphs import CSRGraph
from ..la import edge_map, first_occurrence_mask, pagerank, relax

__all__ = [
    "ligra_bfs",
    "ligra_sssp",
    "ligra_cc",
    "ligra_pr",
    "ligra_bc",
]


def ligra_bfs(graph: CSRGraph, source: int) -> np.ndarray:
    """Frontier BFS: parents claimed by the first updating edge."""
    n = graph.num_vertices
    parents = np.full(n, -1, dtype=np.int64)
    parents[source] = source

    def update(sources: np.ndarray, targets: np.ndarray, weights: None) -> np.ndarray:
        modified = first_occurrence_mask(targets, n)
        parents[targets[modified]] = sources[modified]
        return modified

    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        counters.add_round()
        frontier = edge_map(graph, frontier, update, to_filter=parents < 0)
    return parents


def ligra_sssp(graph: CSRGraph, source: int) -> np.ndarray:
    """Frontier Bellman-Ford: rounds of relaxation over improved vertices."""
    n = graph.num_vertices
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0

    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        counters.add_round()
        frontier, examined = relax(
            graph.indptr, graph.indices, graph.weights, frontier, dist
        )
        counters.add_edges(examined)
    return dist


def ligra_cc(graph: CSRGraph) -> np.ndarray:
    """Frontier-based min-label propagation (only changed labels stay hot)."""
    n = graph.num_vertices
    labels = np.arange(n, dtype=np.int64)

    def update(sources: np.ndarray, targets: np.ndarray, weights: None) -> np.ndarray:
        candidate = labels[sources]
        better = candidate < labels[targets]
        np.minimum.at(labels, targets[better], candidate[better])
        return better

    frontier = np.arange(n, dtype=np.int64)
    while frontier.size:
        counters.add_iteration()
        forward = edge_map(graph, frontier, update)
        if graph.directed:
            backward = edge_map(graph.transpose(), frontier, update)
            frontier = np.union1d(forward, backward)
        else:
            frontier = forward
    return labels


def ligra_pr(
    graph: CSRGraph,
    tolerance: float = 1e-4,
    max_iterations: int = 100,
) -> np.ndarray:
    """Jacobi PageRank: one dense edgeMap accumulation per iteration."""
    n = graph.num_vertices
    everything = np.arange(n, dtype=np.int64)
    incoming = np.zeros(n, dtype=np.float64)

    def pull(contrib: np.ndarray) -> np.ndarray:
        def accumulate(sources: np.ndarray, targets: np.ndarray, weights: None) -> None:
            np.add.at(incoming, targets, contrib[sources])

        incoming[:] = 0.0
        edge_map(graph, everything, accumulate)
        return incoming

    return pagerank(graph.out_degrees, [(0, n, pull)], tolerance, max_iterations)


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

        def count_paths(
            srcs: np.ndarray, tgts: np.ndarray, weights: None
        ) -> np.ndarray:
            np.add.at(sigma, tgts, sigma[srcs])
            return first_occurrence_mask(tgts, n)

        frontier = levels[0]
        level = 0
        while frontier.size:
            counters.add_round()
            frontier = edge_map(graph, frontier, count_paths, to_filter=depth < 0)
            level += 1
            if frontier.size:
                depth[frontier] = level
                levels.append(frontier)

        delta = np.zeros(n, dtype=np.float64)

        def push_dependency(srcs: np.ndarray, tgts: np.ndarray, weights: None) -> None:
            predecessor = depth[tgts] == depth[srcs] - 1
            np.add.at(
                delta,
                tgts[predecessor],
                (sigma[tgts[predecessor]] / sigma[srcs[predecessor]])
                * (1.0 + delta[srcs[predecessor]]),
            )

        transpose = graph.transpose()
        for level_index in range(len(levels) - 1, 0, -1):
            counters.add_round()
            edge_map(transpose, levels[level_index], push_dependency)
        delta[root] = 0.0
        scores += delta
    return scores
