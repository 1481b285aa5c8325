"""GKC betweenness centrality: Brandes with a saved successor DAG.

GKC's BC tracks the GAP reference closely in the paper (97–107% across the
board); like GAP it records the shortest-path DAG during the forward pass
so the backward accumulation replays it without re-filtering the adjacency
(the ``saved_successors`` flavour of :mod:`repro.la.sweep`).
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..graphs import CSRGraph
from ..la import brandes_sweep

__all__ = ["gkc_bc"]


def gkc_bc(graph: CSRGraph, sources: np.ndarray) -> np.ndarray:
    """Brandes BC with saved per-level DAG edges."""
    scores, examined, eccentricities = brandes_sweep(
        graph.indptr, graph.indices, sources, saved_successors=True
    )
    counters.add_edges(examined)
    # Per root: ecc + 1 forward levels, ecc backward levels.
    counters.add_round(int(2 * eccentricities.sum()) + eccentricities.size)
    return scores
