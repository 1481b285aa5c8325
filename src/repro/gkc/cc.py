"""GKC connected components: hybrid Shiloach–Vishkin.

GKC keeps the classic SV structure — alternating hook and pointer-jump
passes over *all* edges until stable — rather than Afforest's
sample-and-skip.  The paper replicates Sutton et al.'s observation that
Afforest is least effective on Urand; full-sweep SV is insensitive to that
and wins there by ~3x (the 295% Urand cell), while paying the full O(E)
per pass everywhere else.  The "hybrid" refinement: hooking alternates
with SIMD-friendly full compression, and edges already inside one
component are filtered out between passes to shrink the working set.
"""

from __future__ import annotations

import numpy as np

from .. import counters
from ..la.hooking import compress
from ..graphs import CSRGraph

__all__ = ["gkc_cc"]


def gkc_cc(graph: CSRGraph) -> np.ndarray:
    """Shiloach–Vishkin components; returns min-label per component."""
    n = graph.num_vertices
    src, dst = graph.edge_array()
    if graph.directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    comp = np.arange(n, dtype=np.int64)

    while True:
        counters.add_iteration()
        counters.add_edges(src.size)
        cu, cv = comp[src], comp[dst]
        low = np.minimum(cu, cv)
        before = comp.copy()
        np.minimum.at(comp, cu, low)
        np.minimum.at(comp, cv, low)
        compress(comp)
        if np.array_equal(before, comp):
            return comp
        # Hybrid working-set reduction: drop settled intra-component edges.
        active = comp[src] != comp[dst]
        src, dst = src[active], dst[active]
        if src.size == 0:
            return comp
