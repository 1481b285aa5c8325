"""GraphIt connected components: label propagation (the paper's weak spot).

GraphIt does not support sampling-based algorithms, so its CC is min-label
propagation: O(E * D) against Afforest's O(V)-ish — the reason the paper's
GraphIt CC falls to 0.17% of reference on Road (label chains as long as the
diameter).  The Optimized Road schedule adds *short-circuiting*: after each
sweep, labels jump to their label's label (``comp = comp[comp]``), which
collapses chains and bought the paper's team a 3x speedup — still far from
Afforest, exactly as Table V shows.
"""

from __future__ import annotations

import numpy as np

from .. import counters
from ..graphitc import Schedule, edgeset_apply_all
from ..graphs import CSRGraph

__all__ = ["graphit_cc"]


def graphit_cc(
    graph: CSRGraph, schedule: Schedule, short_circuit: bool = False
) -> np.ndarray:
    """Label propagation CC; returns min-label per weak component."""
    n = graph.num_vertices
    comp = np.arange(n, dtype=np.int64)

    def propagate(srcs: np.ndarray, dsts: np.ndarray, weights: np.ndarray) -> np.ndarray:
        del weights
        np.minimum.at(comp, dsts, comp[srcs])
        np.minimum.at(comp, srcs, comp[dsts])
        return np.zeros(dsts.size, dtype=bool)

    while True:
        counters.add_iteration()
        before = comp.copy()
        edgeset_apply_all(graph, propagate, schedule, pull=False)
        if short_circuit:
            counters.note("short_circuits")
            comp[:] = comp[comp]
        if np.array_equal(before, comp):
            break
    # Final pointer chase: labels propagate as values, so resolve chains.
    while True:
        resolved = comp[comp]
        if np.array_equal(resolved, comp):
            return comp
        comp = resolved
