"""Community detection by label propagation (CDLP) — Graphalytics kernel.

The paper's introduction positions the GAP suite against LDBC
Graphalytics, whose workload adds CDLP and LCC to the shared kernels; this
extension implements both so the harness can cover the union of the two
benchmarks' kernels.

CDLP (Raghavan et al.'s label propagation for communities): every vertex
starts in its own community and repeatedly adopts the *most frequent*
label among its neighbors (ties broken toward the smallest label, per the
Graphalytics specification), for a fixed number of iterations or until no
label changes.  Unlike the connected-components label propagation, the
mode (not the min) is adopted — so the result depends on local density,
not mere reachability.
"""

from __future__ import annotations

import numpy as np

from .. import counters
from ..graphs import CSRGraph

__all__ = ["cdlp"]


def _mode_per_vertex(
    n: int, owners: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per owner, the most frequent label (smallest on ties).

    ``owners``/``labels`` are parallel arrays of (vertex, neighbor-label)
    pairs; returns (vertices, winning labels) for owners with >= 1 pair.
    """
    if owners.size == 0:
        return owners, labels
    # Count multiplicity of each (owner, label) pair, then pick per owner
    # the pair with the highest count; ties resolve to the smaller label
    # because of the sort order.
    order = np.lexsort((labels, owners))
    owners_sorted = owners[order]
    labels_sorted = labels[order]
    boundary = np.concatenate(
        [[True], (owners_sorted[1:] != owners_sorted[:-1]) | (labels_sorted[1:] != labels_sorted[:-1])]
    )
    group_ids = np.cumsum(boundary) - 1
    pair_counts = np.bincount(group_ids)
    pair_owner = owners_sorted[boundary]
    pair_label = labels_sorted[boundary]
    # Rank pairs per owner: highest count wins; among equals the pair list
    # is already in ascending label order, so a stable sort by (-count)
    # within owner keeps the smallest label first.
    selection = np.lexsort((pair_label, -pair_counts, pair_owner))
    pair_owner = pair_owner[selection]
    pair_label = pair_label[selection]
    first = np.concatenate([[True], pair_owner[1:] != pair_owner[:-1]])
    return pair_owner[first], pair_label[first]


def cdlp(graph: CSRGraph, max_iterations: int = 10) -> np.ndarray:
    """Community labels after at most ``max_iterations`` propagation rounds.

    Directed graphs follow the Graphalytics rule: both in- and out-
    neighbors vote (an edge in either direction contributes one vote each
    way it appears).
    """
    n = graph.num_vertices
    labels = np.arange(n, dtype=np.int64)
    src, dst = graph.edge_array()
    if graph.directed:
        voters = np.concatenate([src, dst])
        owners = np.concatenate([dst, src])
    else:
        owners, voters = src, dst

    for _ in range(max_iterations):
        counters.add_iteration()
        counters.add_edges(owners.size)
        vertex_ids, winning = _mode_per_vertex(n, owners, labels[voters])
        updated = labels.copy()
        updated[vertex_ids] = winning
        if np.array_equal(updated, labels):
            break
        labels = updated
    return labels
