"""LAGraph connected components: FastSV (Zhang, Azad & Hu, 2020).

FastSV improves Shiloach–Vishkin by hooking onto *grandparents* (labels of
labels) and combining three moves per iteration — stochastic hooking,
aggressive hooking, and shortcutting — each expressible as a semiring
product or an element-wise min.  The core product is
``mngp = min_second(A, gp)``: for every vertex, the minimum grandparent
label among its neighbors.

The paper notes that the GraphBLAS C API leaves min-accumulated assignment
with duplicate indices undefined, forcing LAGraph's CC to carry its own
implementation of that kernel; our ``Monoid.accumulate_into`` plays that
role here.
"""

from __future__ import annotations

import numpy as np

from .. import counters
from ..graphs import CSRGraph
from ..semiring import MIN, MIN_SECOND, Matrix, Vector, mxv

__all__ = ["fastsv"]


def fastsv(graph: CSRGraph) -> np.ndarray:
    """FastSV weakly connected components; returns min-label per component."""
    n = graph.num_vertices
    matrix = Matrix.from_graph(graph)
    transpose = matrix.T if graph.directed else None

    f = np.arange(n, dtype=np.float64)  # parent labels
    gp = f.copy()                       # grandparent labels

    while True:
        counters.add_iteration()
        # mngp[v] = min grandparent label among v's neighbors (both edge
        # directions for weak connectivity on directed graphs).
        gp_vec = Vector.full(n, gp)
        mngp = mxv(matrix, gp_vec, MIN_SECOND).to_numpy(fill=np.inf)
        if transpose is not None:
            mngp = np.minimum(
                mngp, mxv(transpose, gp_vec, MIN_SECOND).to_numpy(fill=np.inf)
            )

        before = f.copy()
        # Stochastic hooking: hook the *parent* of v under mngp[v]:
        # f[f[v]] = min(f[f[v]], mngp[v]).  (min-accumulated assignment.)
        parents = before.astype(np.int64)
        finite = np.isfinite(mngp)
        MIN.accumulate_into(f, parents[finite], mngp[finite])
        # Aggressive hooking: hook v directly under the minimum as well.
        np.minimum.at(f, np.flatnonzero(finite), mngp[finite])
        # Shortcutting: f = min(f, grandparent).
        np.minimum(f, gp, out=f)
        # Recompute grandparents.
        gp = f[f.astype(np.int64)]
        if np.array_equal(before, f):
            break
    return f.astype(np.int64)
