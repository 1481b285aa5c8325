"""GAP reference triangle counting: order-invariant with heuristic relabel.

Each triangle is counted exactly once by orienting every undirected edge
from the lower-ranked to the higher-ranked endpoint and intersecting
forward-neighbor lists.  Ranking by degree (the relabel) makes the forward
lists of high-degree vertices short, which is a huge win on skewed graphs —
so, as in the reference code, a sampling heuristic decides whether the
relabel is worth its cost, and when applied the relabel time **is** counted
(a GAP benchmark rule the paper calls out).  The ordered count is
:func:`repro.la.intersect.count_forward_triangles`, which reports the edge
work (``targets.size + row.size`` per qualifying base vertex).
"""

from __future__ import annotations

from .. import counters
from ..graphs import (
    CSRGraph,
    degree_order_permutation,
    degree_skewed as worth_relabelling,
    forward_adjacency,
    permute,
)
from ..la.intersect import count_forward_triangles

__all__ = ["worth_relabelling", "forward_adjacency", "triangle_count"]


def triangle_count(graph: CSRGraph, seed: int = 0, force_relabel: bool | None = None) -> int:
    """GAP TC kernel: optional heuristic relabel, then ordered count.

    ``force_relabel`` overrides the heuristic (used by the ablation bench).
    The input must be undirected; the framework wrapper symmetrizes.
    """
    relabel = worth_relabelling(graph, seed) if force_relabel is None else force_relabel
    if relabel:
        counters.note("relabelled")
        # Ascending degree rank: hubs get high ids, hence short forward lists.
        graph = permute(graph, degree_order_permutation(graph, ascending=True))
    return count_forward_triangles(*forward_adjacency(graph))
