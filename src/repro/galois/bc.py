"""Galois betweenness centrality: Brandes without GAP's successor bitmap.

Per the paper, Galois and GAP both run bulk-synchronous Brandes on
power-law graphs, but GAP is faster because it *saves* each vertex's
successor list (as a bitmap) during the forward pass.  Galois' backward
pass instead re-expands each level's adjacency and re-filters it by depth —
the extra edge work this implementation deliberately performs.

The asynchronous variant (used by the paper's Galois team on uniform
graphs under Baseline rules, where it *hurt* on low-diameter Urand) runs
the forward phase as label-correcting depth/path-count propagation over an
eager worklist — no level barriers; path counts are recomputed per level
once depths have stabilized, then the backward sweep is shared with the
synchronous variant.
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..graphs import CSRGraph
from ..la import gather_edges, unique_ids
from ..worklist import for_each_eager

__all__ = ["galois_bc", "galois_bc_async"]


def _forward(graph: CSRGraph, source: int) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """BFS with path counting; returns (depth, sigma, levels)."""
    n = graph.num_vertices
    depth = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    depth[source] = 0
    sigma[source] = 1.0
    frontier = np.array([source], dtype=np.int64)
    levels = [frontier]
    level = 0
    while frontier.size:
        counters.add_round()
        srcs, tgts = gather_edges(graph.indptr, graph.indices, frontier)
        counters.add_edges(tgts.size)
        fresh_mask = depth[tgts] < 0
        depth[tgts[fresh_mask]] = level + 1
        on_next = depth[tgts] == level + 1
        np.add.at(sigma, tgts[on_next], sigma[srcs[on_next]])
        frontier = unique_ids(tgts[fresh_mask], n)
        if frontier.size:
            levels.append(frontier)
        level += 1
    return depth, sigma, levels


def _backward(
    graph: CSRGraph,
    depth: np.ndarray,
    sigma: np.ndarray,
    levels: list[np.ndarray],
    source: int,
    scores: np.ndarray,
) -> None:
    """Dependency accumulation by re-expanding each level (no saved DAG)."""
    delta = np.zeros_like(sigma)
    for level_index in range(len(levels) - 2, -1, -1):
        counters.add_round()
        members = levels[level_index]
        # Re-expand and re-filter: the work GAP's successor bitmap skips.
        srcs, tgts = gather_edges(graph.indptr, graph.indices, members)
        counters.add_edges(tgts.size)
        succ = depth[tgts] == depth[srcs] + 1
        srcs, tgts = srcs[succ], tgts[succ]
        if srcs.size:
            contributions = (sigma[srcs] / sigma[tgts]) * (1.0 + delta[tgts])
            np.add.at(delta, srcs, contributions)
    delta[source] = 0.0
    scores += delta


def galois_bc(graph: CSRGraph, sources: np.ndarray) -> np.ndarray:
    """Accumulate Brandes dependencies from the given roots (bulk-sync)."""
    scores = np.zeros(graph.num_vertices, dtype=np.float64)
    for source in np.asarray(sources, dtype=np.int64):
        depth, sigma, levels = _forward(graph, int(source))
        _backward(graph, depth, sigma, levels, int(source), scores)
    return scores


def _forward_async(
    graph: CSRGraph, source: int
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Label-correcting forward phase: depths settle without barriers.

    Path counts cannot be accumulated during label correction (a vertex's
    count is only final once its depth is), so sigma is rebuilt level by
    level after the depths stabilize — the extra pass is the async
    variant's work-efficiency price on low-diameter graphs.
    """
    n = graph.num_vertices
    depth = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    queued = np.zeros(n, dtype=bool)
    depth[source] = 0
    queued[source] = True

    def relax(chunk: np.ndarray) -> np.ndarray:
        queued[chunk] = False
        srcs, tgts = gather_edges(graph.indptr, graph.indices, chunk)
        counters.add_edges(tgts.size)
        if tgts.size == 0:
            return tgts
        candidate = depth[srcs] + 1
        better = candidate < depth[tgts]
        tgts, candidate = tgts[better], candidate[better]
        if tgts.size == 0:
            return tgts
        np.minimum.at(depth, tgts, candidate)
        improved = unique_ids(tgts, n)
        fresh = improved[~queued[improved]]
        queued[fresh] = True
        return fresh

    for_each_eager(np.array([source], dtype=np.int64), relax)

    # Rebuild sigma and the level lists from the settled depths.
    reached = depth < np.iinfo(np.int64).max
    max_depth = int(depth[reached].max()) if reached.any() else 0
    sigma = np.zeros(n, dtype=np.float64)
    sigma[source] = 1.0
    levels: list[np.ndarray] = [np.array([source], dtype=np.int64)]
    for level in range(max_depth):
        members = levels[level]
        srcs, tgts = gather_edges(graph.indptr, graph.indices, members)
        counters.add_edges(tgts.size)
        on_next = depth[tgts] == level + 1
        np.add.at(sigma, tgts[on_next], sigma[srcs[on_next]])
        next_members = np.flatnonzero(depth == level + 1)
        if next_members.size == 0:
            break
        levels.append(next_members)
    final_depth = np.where(reached, depth, -1)
    return final_depth, sigma, levels


def galois_bc_async(graph: CSRGraph, sources: np.ndarray) -> np.ndarray:
    """Asynchronous-forward Brandes (the Baseline choice on uniform graphs)."""
    scores = np.zeros(graph.num_vertices, dtype=np.float64)
    for source in np.asarray(sources, dtype=np.int64):
        depth, sigma, levels = _forward_async(graph, int(source))
        _backward(graph, depth, sigma, levels, int(source), scores)
    return scores
