"""GKC BFS: direction-optimizing with GAP-style scouting.

A hand-optimized direct implementation (the paper credits GKC's BFS win on
Road to exactly this: no abstraction layers between the loop and the data).
Algorithmically it is the reference's traversal under the reference's scout
rule, so here it is that call; what set GKC apart in the paper — cache-sized
local output buffers, SIMD batching — is substrate a NumPy port does not
model.
"""

from __future__ import annotations

import numpy as np

from ..graphs import CSRGraph
from ..la import DirectionOptimizer, direction_optimizing_traversal

__all__ = ["gkc_bfs"]


def gkc_bfs(
    graph: CSRGraph, source: int, pull_early_exit: bool = False
) -> np.ndarray:
    """Direction-optimizing BFS; returns parents.

    With ``pull_early_exit=True`` (Optimized mode) the pull phase runs the
    shared early-exit kernel — each row stops at its first frontier parent —
    matching GKC's hand-tuned "break out of the inner loop" discipline.
    Parents are identical; only edges examined drop.
    """
    parents, _ = direction_optimizing_traversal(
        graph.indptr,
        graph.indices,
        graph.in_indptr,
        graph.in_indices,
        source,
        DirectionOptimizer(graph.num_vertices, graph.num_edges),
        pull_early_exit,
    )
    return parents
