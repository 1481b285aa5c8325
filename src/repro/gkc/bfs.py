"""GKC BFS: direction-optimizing with buffered frontier construction.

A hand-optimized direct implementation (the paper credits GKC's BFS win on
Road to exactly this: no abstraction layers between the loop and the data).
The next frontier is produced into a cache-sized :class:`LocalBuffer`; the
push/pull switch uses GAP-style scouting.
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..core.bitmap import Bitmap
from ..graphs import CSRGraph
from ..la import claim_first_writer, gather_edges
from ..la.spmv import masked_pull_claim
from .buffers import LocalBuffer

__all__ = ["gkc_bfs"]

ALPHA = 15
BETA = 18


def gkc_bfs(
    graph: CSRGraph, source: int, pull_early_exit: bool = False
) -> np.ndarray:
    """Direction-optimizing BFS with buffered frontiers; returns parents.

    With ``pull_early_exit=True`` (Optimized mode) the pull phase runs the
    shared early-exit kernel — each row stops at its first frontier parent —
    matching GKC's hand-tuned "break out of the inner loop" discipline.
    Parents are identical; only edges examined drop.
    """
    n = graph.num_vertices
    parents = np.full(n, -1, dtype=np.int64)
    parents[source] = source
    frontier = np.array([source], dtype=np.int64)
    out_degrees = graph.out_degrees
    edges_remaining = graph.num_edges

    while frontier.size:
        counters.add_round()
        scout = int(out_degrees[frontier].sum())
        edges_remaining -= scout
        if scout > max(edges_remaining, 1) // ALPHA:
            bits = Bitmap.from_indices(n, frontier)
            while frontier.size and frontier.size > n // BETA:
                counters.add_round()
                unvisited = np.flatnonzero(parents < 0)
                fresh, examined = masked_pull_claim(
                    graph.in_indptr,
                    graph.in_indices,
                    unvisited,
                    bits.bits,
                    parents,
                    early_exit=pull_early_exit,
                )
                counters.add_edges(examined)
                if fresh.size == 0:
                    return parents
                frontier = fresh
                bits = Bitmap.from_indices(n, frontier)
            if frontier.size == 0:
                return parents
        buffer = LocalBuffer()
        srcs, tgts = gather_edges(graph.indptr, graph.indices, frontier)
        counters.add_edges(tgts.size)
        unclaimed = parents[tgts] < 0
        srcs, tgts = srcs[unclaimed], tgts[unclaimed]
        if tgts.size == 0:
            return parents
        fresh = claim_first_writer(parents, tgts, srcs, n)
        buffer.push(fresh)
        frontier = buffer.drain()
    return parents
