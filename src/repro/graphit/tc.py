"""GraphIt triangle counting: order-invariant, hash set intersection.

Table III lists GraphIt's TC as the order-invariant algorithm with
heuristic relabelling.  The paper's one GraphIt-specific note: its default
set-intersection method had less branch misprediction (good on the large
graphs) but was inefficient on small ones — on Road the Optimized run
switched back to "the naive intersection method used in GAP".  The
substrate's closing test (:func:`repro.la.intersect.count_closing`, a
dense stamp table) *is* that hash method and every framework here runs on
it, so there is no second method left to schedule.
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

__all__ = ["graphit_tc"]


def graphit_tc(graph: CSRGraph, seed: int = 0) -> int:
    """Order-invariant TC over forward adjacency lists."""
    if degree_skewed(graph, seed):
        counters.note("relabelled")
        graph = permute(graph, degree_order_permutation(graph, ascending=True))
    return count_forward_triangles(*forward_adjacency(graph))
