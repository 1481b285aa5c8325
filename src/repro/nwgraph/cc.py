"""NWGraph connected components: Afforest with execution policies.

Table III lists NWGraph's CC as Afforest; the paper notes CC (with BC) is
one of the kernels NWGraph parallelizes purely through C++ execution
policies — the "hands-off" approach its authors consider a feature.  The
algorithm is the GAP reference's three phases with the plain finish
(:func:`repro.la.hooking.afforest`); only the substrate differed, and a
sequential port has no execution policy to differ by.
"""

from __future__ import annotations

import numpy as np

from ..la.hooking import afforest
from ..graphs import CSRGraph

__all__ = ["nwgraph_cc"]


def nwgraph_cc(graph: CSRGraph, seed: int = 0) -> np.ndarray:
    """Afforest; returns component labels."""
    return afforest(graph, seed)
