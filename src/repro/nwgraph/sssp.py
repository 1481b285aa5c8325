"""NWGraph SSSP: bulk-synchronous delta-stepping over edge-tuple ranges.

Managed in the original through TBB primitives rather than execution
policies; algorithmically it is plain delta-stepping — no bucket fusion —
so every same-bucket refill costs another synchronized sweep, which is why
the paper's NWGraph SSSP falls to 4.6% of reference on Road while staying
competitive (114%) on Kron.  The body is :func:`repro.la.delta_stepping`,
run over the out-edge CSR arrays and their weight column.
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..graphs import CSRGraph
from ..la import delta_stepping

__all__ = ["nwgraph_sssp"]


def nwgraph_sssp(graph: CSRGraph, source: int, delta: int = 16) -> np.ndarray:
    """Delta-stepping over (target, weight) tuple ranges; returns distances."""
    dist, examined, rounds, _ = delta_stepping(
        graph.indptr, graph.indices, graph.weights, source, delta
    )
    counters.add_edges(examined)
    counters.add_round(rounds)
    return dist
