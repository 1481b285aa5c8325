"""Wedge closing: the triangle-counting primitive.

Every wedge-checking TC kernel asks one question many times: how many of
these candidate vertices lie in that adjacency row?  :func:`count_closing`
answers it for a batch of *(anchor row, candidate slice)* groups with a
row-block **stamp table** — the masked product ``C<L> = L * U'`` computed
only where the mask is set, and the "hash" set intersection the paper
credits GraphIt with.  A block of anchor rows is stamped into a ``bool``
table at ``local_row * n + w``, the block's candidates are looked up in
it, and the same slots are un-stamped (the table is never re-zeroed), so
memory is a fixed budget at any ``n`` and nothing is O(n^2).

:func:`count_forward_triangles` is the order-invariant count over a
forward (low id -> high id) adjacency stated as such groups: one per
forward edge ``(u, v)``, anchored on ``u``, with candidates ``F(v)``.  It
returns ``(triangles, edges_examined)``; the work accounting is the
per-vertex loop's — ``targets.size + row.size`` for every base vertex with
a non-empty wedge set — so blocking changes the time, not the count.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "count_closing",
    "count_forward_triangles",
    "INTERSECT_BLOCK_EDGES",
    "STAMP_BLOCK_BYTES",
]

# Upper bound on second-level expansion size per block.  At 128 KB of int64
# per temporary a block's working set stays cache-resident and its arrays
# are recycled by the allocator instead of page-faulted in afresh; measured
# 1.5-2x faster than one 4M-wedge block on the skewed graphs at scale 10-14.
INTERSECT_BLOCK_EDGES = 1 << 14
# Stamp-table budget: a block holds at most this many bytes of anchor rows
# (one byte per vertex per row), but always at least one row.  1-4 MiB
# measure alike on the graphs with wedges (and better than 16 MiB); more
# rows per block means fewer blocks on road, which has next to none.
STAMP_BLOCK_BYTES = 1 << 21


def _offset_slices(
    indices: np.ndarray, starts: np.ndarray, lengths: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """``offsets[i] + indices[starts[i] : starts[i] + lengths[i]]``, concatenated."""
    ends = np.cumsum(lengths)
    flat = np.repeat(starts - (ends - lengths), lengths)
    flat += np.arange(int(ends[-1]), dtype=np.int64)
    return indices[flat] + np.repeat(offsets, lengths)


def count_closing(
    indptr: np.ndarray,
    indices: np.ndarray,
    anchors: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    block_wedges: int,
) -> int:
    """Count candidates that lie in their group's anchor row.

    Group ``i`` tests the candidates ``indices[starts[i] : starts[i] +
    lengths[i]]`` for membership in CSR row ``anchors[i]``; the result is
    the number of hits over all groups.  ``anchors`` must be
    non-decreasing.  Groups are processed in blocks of at most
    ``block_wedges`` candidates and ``STAMP_BLOCK_BYTES // n`` distinct
    anchor rows (never fewer than one group or one row).
    """
    num_vertices = indptr.size - 1
    live = lengths > 0
    anchors, starts, lengths = anchors[live], starts[live], lengths[live]
    if anchors.size == 0:
        return 0
    # Rank of each group's anchor among the distinct anchors, and those rows.
    fresh = np.ones(anchors.size, dtype=bool)
    fresh[1:] = anchors[1:] != anchors[:-1]
    rank = np.cumsum(fresh) - 1
    rows = anchors[fresh]
    row_starts = indptr[rows]
    row_lengths = indptr[rows + 1] - row_starts
    row_cap = max(STAMP_BLOCK_BYTES // num_vertices, 1)
    cost = np.concatenate([[0], np.cumsum(lengths)])
    stamp = np.zeros(min(row_cap, rows.size) * num_vertices, dtype=bool)
    total = 0
    lo = 0
    while lo < anchors.size:
        hi = min(
            int(np.searchsorted(cost, cost[lo] + block_wedges, side="right")) - 1,
            int(np.searchsorted(rank, rank[lo] + row_cap)),
        )
        hi = max(hi, lo + 1)
        first, last = int(rank[lo]), int(rank[hi - 1]) + 1
        slots = _offset_slices(
            indices,
            row_starts[first:last],
            row_lengths[first:last],
            np.arange(last - first, dtype=np.int64) * num_vertices,
        )
        stamp[slots] = True
        wedges = _offset_slices(
            indices,
            starts[lo:hi],
            lengths[lo:hi],
            (rank[lo:hi] - first) * num_vertices,
        )
        total += int(np.count_nonzero(stamp[wedges]))
        stamp[slots] = False
        lo = hi
    return total


def count_forward_triangles(
    indptr: np.ndarray, indices: np.ndarray
) -> tuple[int, int]:
    """Count triangles in a forward (low -> high oriented) CSR adjacency."""
    if indices.size == 0:
        return 0, 0
    deg = np.diff(indptr)
    # Per forward edge (u, v): |F(v)|; summed per u, the wedge count of u.
    fanout = deg[indices]
    prefix = np.concatenate([[0], np.cumsum(fanout)])
    wedges_per_u = prefix[indptr[1:]] - prefix[indptr[:-1]]
    qualifying = (deg >= 2) & (wedges_per_u > 0)
    examined = int(wedges_per_u[qualifying].sum() + deg[qualifying].sum())
    owners = np.repeat(np.arange(deg.size, dtype=np.int64), deg)
    edges = np.flatnonzero(qualifying[owners])
    heads = indices[edges]
    triangles = count_closing(
        indptr, indices, owners[edges], indptr[heads], deg[heads], INTERSECT_BLOCK_EDGES
    )
    return triangles, examined
