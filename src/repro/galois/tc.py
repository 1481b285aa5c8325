"""Galois triangle counting: same order-invariant algorithm as GAP.

Table III lists Galois' TC as order-invariant with heuristic-controlled
relabelling, i.e. the GAP algorithm.  The paper's differences on this
kernel are scheduling-level (work stealing helps on skewed Web, hurts on
balanced Urand — both unmodelled here) plus one *rules* difference: in the
Optimized data set the Galois team excluded preprocessing/relabel time,
which this reproduction honours through the framework's untimed
``prepare`` hook rather than inside the kernel.
"""

from __future__ import annotations

from .. import counters
from ..graphs import (
    CSRGraph,
    degree_order_permutation,
    degree_skewed,
    forward_adjacency,
    permute,
)
from ..la.intersect import count_forward_triangles

__all__ = ["galois_tc", "galois_relabel"]


def galois_relabel(graph: CSRGraph, seed: int = 0) -> CSRGraph:
    """Degree-sort relabel when the heuristic calls for it (else identity)."""
    if not degree_skewed(graph, seed):
        return graph
    return permute(graph, degree_order_permutation(graph, ascending=True))


def galois_tc(graph: CSRGraph, seed: int = 0, skip_relabel: bool = False) -> int:
    """Order-invariant triangle count over forward adjacency lists."""
    if not skip_relabel and degree_skewed(graph, seed):
        counters.note("relabelled")
        graph = permute(graph, degree_order_permutation(graph, ascending=True))
    return count_forward_triangles(*forward_adjacency(graph))
