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

from itertools import zip_longest

import numpy as np

from ..core import counters
from ..graphs import CSRGraph
from ..la import brandes_backward, brandes_sweep, gather_edges, unique_ids
from ..worklist import for_each_eager

__all__ = ["galois_bc", "galois_bc_async"]


def galois_bc(graph: CSRGraph, sources: np.ndarray) -> np.ndarray:
    """Accumulate Brandes dependencies from the given roots (bulk-sync)."""
    scores, examined, eccentricities = brandes_sweep(
        graph.indptr, graph.indices, sources, saved_successors=False
    )
    counters.add_edges(examined)
    counters.add_round(int(2 * eccentricities.sum()) + eccentricities.size)
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
    """Asynchronous-forward Brandes (the Baseline choice on uniform graphs).

    Label correction has no levels to share, so the forward phase runs per
    root; the roots' settled state is then lifted (root ``r``'s vertex ``v``
    is ``r * n + v``) into the synchronous variant's backward sweep.
    """
    sources = np.asarray(sources, dtype=np.int64)
    depths, sigmas, levels = zip(*(_forward_async(graph, int(s)) for s in sources))
    lifted = (
        [members + root * graph.num_vertices for members in own]
        for root, own in enumerate(levels)
    )
    exhausted = np.empty(0, dtype=np.int64)
    scores, examined, eccentricities = brandes_backward(
        graph.indptr, graph.indices, sources,
        np.concatenate(depths), np.concatenate(sigmas),
        [np.concatenate(level) for level in zip_longest(*lifted, fillvalue=exhausted)],
    )
    counters.add_edges(examined)
    counters.add_round(int(eccentricities.sum()))
    return scores
