"""NWGraph SSSP: bulk-synchronous delta-stepping over edge-tuple ranges.

Managed in the original through TBB primitives rather than execution
policies; algorithmically it is plain delta-stepping — no bucket fusion —
so every same-bucket refill costs another synchronized sweep, which is why
the paper's NWGraph SSSP falls to 4.6% of reference on Road while staying
competitive (114%) on Kron.  The body is :func:`repro.la.delta_stepping`,
run over the out-edge range view and its weight property column.
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..graphs import CSRGraph
from ..la import delta_stepping
from ..ranges import AdjacencyView

__all__ = ["nwgraph_sssp"]


def nwgraph_sssp(graph: CSRGraph, source: int, delta: int = 16) -> np.ndarray:
    """Delta-stepping over (target, weight) tuple ranges; returns distances."""
    view = AdjacencyView.out_edges(graph)
    dist, examined, rounds, _ = delta_stepping(
        view.indptr, view.indices, view.weights, source, delta
    )
    counters.add_edges(examined)
    counters.add_round(rounds)
    return dist
