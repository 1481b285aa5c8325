"""GraphIt BFS: hybrid-direction edgeset.apply over the DSL engine.

The algorithm is four lines of GraphIt — apply ``updateParent`` to the
edges from the frontier, restricted to unvisited destinations — and all
performance decisions live in the schedule.  The paper attributes GAP's
Baseline edge on Road to cheaper frontier creation and active-vertex
counting, which here shows up as the engine's per-step vertexset
construction; the Optimized push-only schedule on Road removes the hybrid
check (and its scouting cost) entirely.
"""

from __future__ import annotations

import numpy as np

from .. import counters
from ..graphitc import Schedule, VertexSet, edgeset_apply_from
from ..graphs import CSRGraph
from ..la import first_occurrence_mask

__all__ = ["graphit_bfs"]


def graphit_bfs(graph: CSRGraph, source: int, schedule: Schedule) -> np.ndarray:
    """BFS under the given schedule; returns the parent array."""
    n = graph.num_vertices
    parents = np.full(n, -1, dtype=np.int64)
    parents[source] = source

    def update_parent(srcs: np.ndarray, dsts: np.ndarray, weights: np.ndarray) -> np.ndarray:
        del weights
        modified = first_occurrence_mask(dsts, n)
        parents[dsts[modified]] = srcs[modified]
        return modified

    frontier = VertexSet.from_ids(n, np.array([source]), schedule.frontier)
    while frontier:
        counters.add_round()
        frontier = edgeset_apply_from(
            graph, frontier, update_parent, schedule, to_filter=parents < 0
        )
    return parents
