"""CSR edge gathers: the memory operation under every frontier kernel.

Expanding "the edges leaving this vertex set" is the single hottest
operation in the repository — every push step, pull step, relaxation, and
full-graph sweep in all six frameworks bottoms out here.  It improves on
the historical three-``np.repeat`` formulation in two ways:

* one ``np.repeat`` fewer: the flat edge index is ``arange(total)`` plus a
  per-row shift (``row_start - exclusive_cumsum(counts)``) repeated once;
* a **full-sweep fast path**: when the row set is every vertex in order
  (topology-driven kernels like PageRank and label propagation), the
  target array *is* ``indices`` — no flat-index computation and no fancy
  gather at all, and weights pass through as views.

Both ways return the arrays the historical formulation did; index dtype
follows the graph's (int32 and int64 CSR arrays are both supported and
preserved).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gather_edges",
    "gather_edges_weighted",
    "flat_edge_index",
    "is_full_range",
]


def is_full_range(rows: np.ndarray, num_rows: int) -> bool:
    """Whether ``rows`` is exactly ``arange(num_rows)`` (a full sweep)."""
    if rows.size != num_rows or num_rows == 0:
        return rows.size == num_rows == 0
    # O(n) comparison, far cheaper than the O(E) gather it short-circuits.
    return bool(rows[0] == 0 and rows[-1] == num_rows - 1 and np.array_equal(
        rows, np.arange(num_rows, dtype=rows.dtype)
    ))


def flat_edge_index(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """(row owner per edge, flat index into ``indices``, total edges).

    Public for callers that gather auxiliary per-edge arrays (values,
    weights) themselves.
    """
    # In-place / method form: small frontiers pay per NumPy call, not per edge.
    starts = indptr[rows]
    counts = indptr[rows + 1]
    counts -= starts
    ends = counts.cumsum()
    total = int(ends[-1]) if ends.size else 0
    shift = starts - ends
    shift += counts
    flat = shift.repeat(counts)
    flat += np.arange(total)
    return rows.repeat(counts), flat, total


def gather_edges(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather all edges leaving ``rows``: ``(sources, targets)``.

    ``sources[i]`` is the row owning edge ``i`` and ``targets[i]`` its
    head; duplicate targets are preserved (deduplication policy belongs to
    the caller).
    """
    if is_full_range(rows, indptr.size - 1):
        return np.repeat(rows, np.diff(indptr)), indices
    owners, flat, _ = flat_edge_index(indptr, rows)
    return owners, indices[flat]


def gather_edges_weighted(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Like :func:`gather_edges` but also returns per-edge weights."""
    if is_full_range(rows, indptr.size - 1):
        return np.repeat(rows, np.diff(indptr)), indices, weights
    owners, flat, _ = flat_edge_index(indptr, rows)
    return owners, indices[flat], weights[flat]
