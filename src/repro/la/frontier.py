"""Frontier bookkeeping: first-writer claims, dedup, and min-relaxation.

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
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "claim_first_writer",
    "first_occurrence_mask",
    "unique_ids",
    "relax_minimum",
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
