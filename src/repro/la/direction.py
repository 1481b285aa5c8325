"""Shared direction-optimizing push/pull switch (Beamer's ALPHA/BETA rule).

Beamer's direction-optimizing BFS heuristic lived inside ``gapbs/bfs.py``
since the seed; LAGraph's BFS reimplemented the same comparison with its
own thresholds.  This module lifts the policy into one object any
frontier kernel (BFS, BC forward sweeps, frontier SSSP) can consult:

* switch **to pull** when the frontier's unexplored out-edges exceed the
  remaining untraversed edges divided by ALPHA (the frontier is about to
  touch most of what is left, so scanning the unvisited side is cheaper);
* switch **back to push** once the frontier shrinks below |V| / BETA.

The optimizer only decides direction; it does not touch counters, and the
edges-remaining bookkeeping (``charge``) is driven by the caller so the
accounting matches each framework's own notion of "traversed".
"""

from __future__ import annotations

import numpy as np

__all__ = ["DirectionOptimizer", "ALPHA", "BETA"]

# Beamer et al.'s published constants, identical to the reference GAPBS.
ALPHA = 15
BETA = 18


class DirectionOptimizer:
    """Stateful ALPHA/BETA policy over one traversal's lifetime.

    ``edges_remaining`` starts at the graph's directed edge count and is
    decremented by :meth:`charge` as frontiers expand, mirroring the
    reference implementation's ``edges_to_check -= scout_count``.
    """

    __slots__ = ("alpha", "beta", "num_vertices", "edges_remaining")

    def __init__(
        self,
        num_vertices: int,
        num_edges: int,
        alpha: int = ALPHA,
        beta: int = BETA,
    ) -> None:
        self.alpha = alpha
        self.beta = beta
        self.num_vertices = num_vertices
        self.edges_remaining = int(num_edges)

    def scout_count(self, out_degrees: np.ndarray, frontier: np.ndarray) -> int:
        """Total out-degree of the frontier — the cost of pushing it."""
        if frontier.size == 0:
            return 0
        return int(out_degrees[frontier].sum())

    def charge(self, edges: int) -> None:
        """Account ``edges`` as no longer untraversed."""
        self.edges_remaining -= int(edges)

    def wants_pull(self, scout: int) -> bool:
        """True when the push cost crosses the ALPHA threshold."""
        return scout > max(self.edges_remaining, 1) // self.alpha

    def frontier_is_small(self, frontier_size: int) -> bool:
        """True when a pulled frontier is small enough to resume pushing."""
        return frontier_size <= max(self.num_vertices, 1) // self.beta
