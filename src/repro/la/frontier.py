"""Frontier bookkeeping: first-writer claims, dedup, min-relaxation, Δ-stepping.

Every frontier kernel in the repository used one sorting idiom for
"CAS-like" updates::

    fresh, first = np.unique(targets, return_index=True)
    state[fresh] = values[first]

i.e. of all edges hitting a target this round, the first in expansion
order wins — the vectorized analog of the reference codes' compare-and-
swap loops.  ``np.unique`` pays an O(E log E) sort for this.  This module
gets identical semantics in O(E + V) without sorting:

* **first-writer claim** — NumPy fancy assignment is last-writer-wins, so
  assigning the *reversed* arrays makes the first occurrence win;
* **dedup via flags** — a boolean scratch array plus ``nonzero``
  yields the same sorted unique ids as ``np.unique``.

On top of the min-relaxation sits the one bucketed SSSP of Table III:
:func:`delta_stepping` is the body GAP, Galois' bulk-synchronous variant,
GKC and NWGraph all run, bucket fusion being GAP's argument to it.
"""

from __future__ import annotations

import numpy as np

from .gather import gather_edges_weighted

__all__ = [
    "claim_first_writer",
    "first_occurrence_mask",
    "unique_ids",
    "relax_minimum",
    "relax",
    "delta_stepping",
]


def claim_first_writer(
    state: np.ndarray, keys: np.ndarray, values: np.ndarray, num_vertices: int
) -> np.ndarray:
    """First-writer-wins scatter: ``state[k] = first value per key``.

    Writes into ``state`` in place and returns the sorted unique keys that
    were written — exactly the ``np.unique(..., return_index=True)`` idiom
    shared by the BFS push steps, the pull steps, and the Brandes forward
    passes, centralized here (property-tested for adversarial duplicate
    orderings in ``tests/test_la_first_writer.py``).
    """
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    # Fancy assignment keeps the LAST write per index; reversing both
    # arrays therefore keeps the FIRST, with no sort.
    state[keys[::-1]] = values[::-1]
    return unique_ids(keys, num_vertices)


def first_occurrence_mask(keys: np.ndarray, num_vertices: int) -> np.ndarray:
    """Boolean mask selecting the first occurrence of each key.

    The mask form of the same idiom, for update functions that must report
    *which edge entries* claimed their target (Ligra/GraphIt ``applyModified``
    semantics).
    """
    if keys.size == 0:
        return np.zeros(0, dtype=bool)
    first_at = np.full(num_vertices, -1, dtype=np.int64)
    positions = np.arange(keys.size, dtype=np.int64)
    first_at[keys[::-1]] = positions[::-1]
    return first_at[keys] == positions


def unique_ids(keys: np.ndarray, num_vertices: int) -> np.ndarray:
    """Sorted unique vertex ids, flag-based instead of sort-based."""
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    flags = np.zeros(num_vertices, dtype=bool)
    flags[keys] = True
    return flags.nonzero()[0]


def relax_minimum(
    dist: np.ndarray,
    targets: np.ndarray,
    candidates: np.ndarray,
    num_vertices: int,
) -> np.ndarray:
    """Apply ``dist[t] = min(dist[t], candidate)`` per edge; return improved.

    The caller is expected to pre-filter to strictly-improving edges (the
    shared relaxation pattern of the SSSP kernels); the return value is the
    sorted unique set of improved targets.
    """
    if targets.size == 0:
        return np.empty(0, dtype=np.int64)
    np.minimum.at(dist, targets, candidates)
    return unique_ids(targets, num_vertices)


def relax(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    frontier: np.ndarray,
    dist: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Relax every out-edge of ``frontier`` into ``dist``.

    Returns ``(improved vertices, edges examined)``; ``dist`` is updated in
    place to the minimum over the strictly improving candidates.
    """
    sources, targets, edge_weights = gather_edges_weighted(
        indptr, indices, weights, frontier
    )
    candidate = dist[sources] + edge_weights
    better = candidate < dist[targets]
    improved = relax_minimum(dist, targets[better], candidate[better], dist.size)
    return improved, int(targets.size)


def delta_stepping(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    source: int,
    delta: int,
    fusion_threshold: int = 0,
) -> tuple[np.ndarray, int, int, int]:
    """Δ-stepping (Meyer & Sanders) from ``source`` over buckets of width ``delta``.

    Buckets settle in priority order; every refill of the current bucket
    costs a synchronized round, unless it holds at most ``fusion_threshold``
    vertices, in which case it is drained on the spot (GraphIt's *bucket
    fusion*, Zhang et al. CGO'20 — above the threshold a real
    implementation re-balances across threads, which is a round).  Returns
    ``(distances, edges examined, rounds, fused rounds)``, ``inf`` for
    unreachable vertices; nothing is reported to ``counters``.
    """
    n = indptr.size - 1
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    # Buckets stored sparsely: bucket index -> list of member arrays (lazy
    # deletion: membership is re-checked against dist when popped).
    buckets: dict[int, list[np.ndarray]] = {0: [np.array([source], dtype=np.int64)]}
    examined = rounds = fused_rounds = 0

    def relax_from(frontier: np.ndarray, current: int) -> np.ndarray:
        """Relax ``frontier``, file what improved; return the refill of ``current``."""
        nonlocal examined
        improved, edges = relax(indptr, indices, weights, frontier, dist)
        examined += edges
        landing = (dist[improved] // delta).astype(np.int64)
        same = landing == current
        others, other_buckets = improved[~same], landing[~same]
        for later in np.unique(other_buckets):
            buckets.setdefault(int(later), []).append(others[other_buckets == later])
        return improved[same]

    while buckets:
        current = min(buckets)
        pending = buckets.pop(current)
        while pending:
            rounds += 1
            members = unique_ids(np.concatenate(pending), n)
            pending = []
            frontier = members[(dist[members] // delta).astype(np.int64) == current]
            if frontier.size == 0:
                continue
            refills = relax_from(frontier, current)
            while 0 < refills.size <= fusion_threshold:
                fused_rounds += 1
                refills = relax_from(refills, current)
            if refills.size:
                pending.append(refills)
    return dist, examined, rounds, fused_rounds
