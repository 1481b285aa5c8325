"""Galois connected components: hybrid Afforest (+ edge-blocked variant).

Galois uses the same Afforest algorithm as GAP (Table III marks it
"Hybrid Afforest" with an asynchronous variant).  Its operator formulation
permits the non-vertex-program neighborhoods Afforest needs — the paper
makes this a selling point of Galois' generality.  The Optimized run on Web
used an *edge-blocking* variant of the finish phase for better load
balance; we expose that as ``edge_blocking=True`` (the finish edges are
processed in fixed-size blocks with compression between blocks, letting
early blocks shrink the label chains later blocks walk) — the finish
argument of :func:`repro.la.hooking.afforest`.
"""

from __future__ import annotations

import numpy as np

from ..la.hooking import afforest, converge, converge_in_blocks
from ..graphs import CSRGraph

__all__ = ["galois_afforest"]


def galois_afforest(
    graph: CSRGraph, seed: int = 0, edge_blocking: bool = False
) -> np.ndarray:
    """Afforest with Galois' operator-style finish phase."""
    return afforest(graph, seed, converge_in_blocks if edge_blocking else converge)
