"""Local clustering coefficient (LCC) — Graphalytics kernel.

LCC(v) = (number of edges among v's neighbors) / (d(v) * (d(v) - 1))
counted on the symmetrized graph, i.e. the density of v's neighborhood.
It shares triangle counting's wedge-closure core, so the implementation
reuses the batched closure test from the TC kernels — each closed wedge
(u, v, w) contributes to the mid vertex's numerator.
"""

from __future__ import annotations

import numpy as np

from .. import counters
from ..graphs import CSRGraph

__all__ = ["lcc"]

WEDGE_BLOCK = 1 << 17


def lcc(graph: CSRGraph) -> np.ndarray:
    """Per-vertex local clustering coefficient (0 where degree < 2)."""
    undirected = graph.to_undirected() if graph.directed else graph
    n = undirected.num_vertices
    degrees = undirected.out_degrees  # symmetric, so out == in
    src, dst = undirected.edge_array()

    # Sorted edge keys for closure testing.
    keys = src * np.int64(n) + dst  # already lexsorted by construction
    closed = np.zeros(n, dtype=np.int64)

    # For each directed pair (v, u) enumerate v's other neighbors w > u and
    # test (u, w); each unordered neighbor pair of v is then checked once,
    # and a hit means u-w are adjacent: one link inside v's neighborhood.
    positions = np.arange(src.size, dtype=np.int64)
    tail_len = undirected.indptr[src + 1] - (positions + 1)
    cost = np.concatenate([[0], np.cumsum(tail_len)])
    start = 0
    while start < src.size:
        stop = int(np.searchsorted(cost, cost[start] + WEDGE_BLOCK, side="right"))
        stop = min(max(stop, start + 1), src.size)
        sel = slice(start, stop)
        lengths = tail_len[sel]
        total = int(lengths.sum())
        if total:
            mids = np.repeat(src[sel], lengths)
            anchors = np.repeat(dst[sel], lengths)
            offsets = np.arange(total, dtype=np.int64)
            begin = np.repeat(np.cumsum(lengths) - lengths, lengths)
            flat = np.repeat(positions[sel] + 1, lengths) + (offsets - begin)
            tails = dst[flat]
            counters.add_edges(total)
            lo = np.minimum(anchors, tails)
            hi = np.maximum(anchors, tails)
            wedge_keys = lo * np.int64(n) + hi
            found = np.searchsorted(keys, wedge_keys)
            found[found == keys.size] = 0
            hit = keys[found] == wedge_keys
            np.add.at(closed, mids[hit], 1)
        start = stop

    possible = degrees.astype(np.float64) * (degrees - 1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Each adjacent neighbor pair was found once; the conventional
        # formula counts ordered pairs, hence the factor of two.
        coefficients = np.where(possible > 0, 2.0 * closed / possible, 0.0)
    return coefficients
