"""GKC SSSP: bulk-synchronous delta-stepping.

Straightforward delta-stepping — no bucket fusion.  The paper's numbers
(113–119% on Web/Urand, 18% on Road) reflect exactly this combination:
excellent raw per-edge throughput, but every same-bucket refill on a
high-diameter graph pays a synchronization round.  The body is
:func:`repro.la.delta_stepping`; the throughput half (buffered, SIMD-batched
bucket insertion) is substrate this port does not model.
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..graphs import CSRGraph
from ..la import delta_stepping

__all__ = ["gkc_sssp"]


def gkc_sssp(graph: CSRGraph, source: int, delta: int = 16) -> np.ndarray:
    """Unfused delta-stepping; returns distances."""
    dist, examined, rounds, _ = delta_stepping(
        graph.indptr, graph.indices, graph.weights, source, delta
    )
    counters.add_edges(examined)
    counters.add_round(rounds)
    return dist
