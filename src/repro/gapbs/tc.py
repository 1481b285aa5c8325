"""GAP reference triangle counting: order-invariant with heuristic relabel.

Each triangle is counted exactly once by orienting every undirected edge
from the lower-ranked to the higher-ranked endpoint and intersecting
forward-neighbor lists.  Ranking by degree (the relabel) makes the forward
lists of high-degree vertices short, which is a huge win on skewed graphs —
so, as in the reference code, a sampling heuristic decides whether the
relabel is worth its cost (:func:`repro.la.intersect.relabel_permutation`),
and when applied the relabel time **is** counted (a GAP benchmark rule the
paper calls out).  The ordered count is
:func:`repro.la.intersect.count_forward_triangles`, which reports the edge
work (``targets.size + row.size`` per qualifying base vertex).
"""

from __future__ import annotations

from ..graphs import (
    CSRGraph,
    degree_skewed as worth_relabelling,
    forward_adjacency,
    permute,
)
from ..la.intersect import count_forward_triangles, relabel_permutation

__all__ = ["worth_relabelling", "forward_adjacency", "triangle_count"]


def triangle_count(graph: CSRGraph, seed: int = 0) -> int:
    """GAP TC kernel: heuristic relabel, then ordered count.

    The input must be undirected; the framework wrapper symmetrizes.
    """
    perm = relabel_permutation(graph, seed)
    if perm is not None:
        graph = permute(graph, perm)
    return count_forward_triangles(*forward_adjacency(graph))
