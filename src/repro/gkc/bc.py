"""GKC betweenness centrality: Brandes with a saved successor DAG.

GKC's BC tracks the GAP reference closely in the paper (97–107% across the
board); like GAP it records the shortest-path DAG during the forward pass
so the backward accumulation replays it without re-filtering the adjacency.
The per-level frontier is produced through the local-buffer discipline.
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..graphs import CSRGraph
from ..la import gather_edges, unique_ids
from .buffers import LocalBuffer

__all__ = ["gkc_bc"]


def gkc_bc(graph: CSRGraph, sources: np.ndarray) -> np.ndarray:
    """Brandes BC with saved per-level DAG edges."""
    n = graph.num_vertices
    scores = np.zeros(n, dtype=np.float64)

    for source in np.asarray(sources, dtype=np.int64):
        depth = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n, dtype=np.float64)
        depth[source] = 0
        sigma[source] = 1.0
        frontier = np.array([source], dtype=np.int64)
        levels = [frontier]
        dag: list[tuple[np.ndarray, np.ndarray]] = []
        level = 0
        while frontier.size:
            counters.add_round()
            srcs, tgts = gather_edges(graph.indptr, graph.indices, frontier)
            counters.add_edges(tgts.size)
            fresh_mask = depth[tgts] < 0
            depth[tgts[fresh_mask]] = level + 1
            on_next = depth[tgts] == level + 1
            dag.append((srcs[on_next], tgts[on_next]))
            np.add.at(sigma, tgts[on_next], sigma[srcs[on_next]])
            buffer = LocalBuffer()
            buffer.push(unique_ids(tgts[fresh_mask], n))
            frontier = buffer.drain()
            if frontier.size:
                levels.append(frontier)
            level += 1

        delta = np.zeros(n, dtype=np.float64)
        for level_index in range(len(levels) - 2, -1, -1):
            counters.add_round()
            succ_src, succ_dst = dag[level_index]
            counters.add_edges(succ_src.size)
            if succ_src.size:
                np.add.at(
                    delta,
                    succ_src,
                    (sigma[succ_src] / sigma[succ_dst]) * (1.0 + delta[succ_dst]),
                )
        delta[source] = 0.0
        scores += delta
    return scores
