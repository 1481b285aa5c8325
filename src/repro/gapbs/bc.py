"""GAP reference betweenness centrality: Brandes with saved successors.

Brandes' algorithm runs, per root, a forward BFS that counts shortest paths
(sigma) and a backward sweep that accumulates dependencies level by level.
The GAP reference records each vertex's *successors* during the forward
pass (in the C++ code, as a bitmap over edges) so the backward pass replays
exactly the shortest-path DAG instead of re-scanning and re-filtering the
adjacency — the optimization the paper credits for GAP beating Galois on
uniform graphs.  That choice is the ``saved_successors`` flavour of the
shared multi-root sweep (:mod:`repro.la.sweep`), which advances all of a
trial's roots one level per step.

Following the GAP benchmark, BC is approximated from a handful of roots
(4 per trial) and paths are counted on the unweighted directed graph.
"""

from __future__ import annotations

import numpy as np

from ..graphs import CSRGraph
from ..la import brandes_sweep

__all__ = ["brandes_bc"]


def brandes_bc(graph: CSRGraph, sources: np.ndarray) -> np.ndarray:
    """Approximate BC by accumulating Brandes dependencies from ``sources``."""
    return brandes_sweep(graph.indptr, graph.indices, sources, saved_successors=True)
