"""The frontier operator: Ligra's ``edgeMap`` and GraphIt's ``edgeset.apply``.

Ligra's ``edgeMap`` and GraphIt's ``edgeset.apply`` from a frontier to a
filtered set are one operator, GraphBLAST's direction-optimized masked
SpMSpV / SpMV, whose push/pull choice is the only schedule:

* **push** gathers the frontier's out-edges and keeps those whose target
  passes ``to_filter``;
* **pull** gathers the in-edges of every vertex passing ``to_filter`` and
  keeps those whose source is in the frontier.

Either way the surviving ``(sources, targets, weights)`` go to one
vectorized update, which returns the mask of entries it modified (the
compare-and-swap successes) or ``None`` for a plain apply.  When the
caller does not fix the direction, the **volume rule** of both frameworks
decides: pull once the frontier's out-edges plus its size exceed
``m / VOLUME_FRACTION``.  Beamer's scout rule (:mod:`.direction`) weighs
the frontier against the edges still unexplored instead.  The operator
reports its edges and one ``edge_map_dense`` / ``edge_map_sparse`` note
per call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .. import counters
from ..graphs import CSRGraph
from .frontier import unique_ids
from .gather import gather_edges, gather_edges_weighted

__all__ = ["edge_map", "volume_wants_pull"]

# Ligra's default and GraphIt's hybrid schedule: pull above m / 20.
VOLUME_FRACTION = 20

Update = Callable[
    [np.ndarray, np.ndarray, "np.ndarray | None"], "np.ndarray | None"
]


def volume_wants_pull(graph: CSRGraph, frontier: np.ndarray) -> bool:
    """The volume rule: whether pushing ``frontier`` costs more than m / 20."""
    volume = int(graph.out_degrees[frontier].sum()) + frontier.size
    return volume > graph.num_edges // VOLUME_FRACTION


def edge_map(
    graph: CSRGraph,
    frontier: np.ndarray,
    update: Update,
    to_filter: np.ndarray | None = None,
    pull: bool | None = None,
    frontier_bits: np.ndarray | None = None,
) -> np.ndarray | None:
    """Apply ``update`` to the edges leaving ``frontier`` (sorted ids).

    ``to_filter`` (a boolean array over vertices) restricts the targets;
    ``pull`` fixes the direction, ``None`` leaves it to the volume rule.
    A caller already holding the frontier as a boolean array passes it as
    ``frontier_bits`` so a pull does not rebuild it.  ``weights`` is
    ``None`` on an unweighted graph.  Returns the sorted unique targets
    the update modified, or ``None`` when it returned ``None``.
    """
    if pull is None:
        pull = volume_wants_pull(graph, frontier)
    if pull:
        counters.note("edge_map_dense")
        if frontier_bits is None:
            frontier_bits = np.zeros(graph.num_vertices, dtype=bool)
            frontier_bits[frontier] = True
        candidates = (
            np.arange(graph.num_vertices, dtype=np.int64)
            if to_filter is None
            else np.flatnonzero(to_filter)
        )
        targets, sources, weights = _gather(
            graph.in_indptr, graph.in_indices, graph.in_weights, candidates
        )
        keep = frontier_bits[sources]
    else:
        counters.note("edge_map_sparse")
        sources, targets, weights = _gather(
            graph.indptr, graph.indices, graph.weights, frontier
        )
        keep = None if to_filter is None else to_filter[targets]
    counters.add_edges(targets.size)
    if keep is not None:
        sources, targets = sources[keep], targets[keep]
        weights = None if weights is None else weights[keep]
    if targets.size == 0:
        return np.empty(0, dtype=np.int64)
    modified = update(sources, targets, weights)
    if modified is None:
        return None
    return unique_ids(targets[modified], graph.num_vertices)


def _gather(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray | None,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    if weights is None:
        return *gather_edges(indptr, indices, rows), None
    return gather_edges_weighted(indptr, indices, weights, rows)
