"""NWGraph BFS: direction-optimizing with a simple, untuned switch.

The paper describes NWGraph's BFS as "a straightforward, initial
implementation with a simple direction optimized search and no fine tuning
of the switching criteria", and notes its performance is sensitive to that
heuristic.  We keep exactly that character: the switch is on frontier
*size* alone (no edge-count scouting like GAP's alpha test), with fixed
untuned thresholds, handed to the shared traversal as its policy.
"""

from __future__ import annotations

import numpy as np

from ..graphs import CSRGraph
from ..la import DirectionOptimizer, direction_optimizing_traversal

__all__ = ["nwgraph_bfs"]

# Untuned size-based thresholds (fractions of |V|).
PULL_THRESHOLD = 0.05
PUSH_THRESHOLD = 0.01


def nwgraph_bfs(
    graph: CSRGraph, source: int, pull_early_exit: bool = False
) -> np.ndarray:
    """Direction-optimizing BFS over adjacency ranges; returns parents.

    ``pull_early_exit=True`` stops each in-range scan at the first frontier
    parent without changing the parents found.
    """
    policy = DirectionOptimizer(
        graph.num_vertices,
        graph.num_edges,
        size_fractions=(PULL_THRESHOLD, PUSH_THRESHOLD),
    )
    parents, _ = direction_optimizing_traversal(
        graph.indptr,
        graph.indices,
        graph.in_indptr,
        graph.in_indices,
        source,
        policy,
        pull_early_exit,
    )
    return parents
