"""NWGraph betweenness centrality: Brandes without direction optimization.

The paper: "The BC kernel did not use direction optimized breadth-first
search.  Performance, however, is still competitive, with the exception of
Road" — where the per-round range-view overheads (the analog of NWGraph's
STL-vector overheads) dominate the many short levels.  The forward pass is
push-only; the backward pass re-filters the adjacency by depth (no saved
successor structure) — the re-expanding flavour of :mod:`repro.la.sweep`,
run over the graph's out-edge CSR arrays.
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..graphs import CSRGraph
from ..la import brandes_sweep

__all__ = ["nwgraph_bc"]


def nwgraph_bc(graph: CSRGraph, sources: np.ndarray) -> np.ndarray:
    """Brandes BC from the given roots over the out-edge ranges."""
    scores, examined, eccentricities = brandes_sweep(
        graph.indptr, graph.indices, sources, saved_successors=False
    )
    counters.add_edges(examined)
    counters.add_round(int(2 * eccentricities.sum()) + eccentricities.size)
    return scores
