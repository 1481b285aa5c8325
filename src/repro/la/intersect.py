"""Forward-adjacency intersection: the triangle-counting primitive.

Both triangle-counting kernels (GAP's and Ligra's) count each triangle
once by orienting edges low-id -> high-id and intersecting forward lists.
The textbook formulation is a per-vertex loop; this module lifts it into
blocked two-level gathers: every wedge ``u -> v -> w`` for a block of base
vertices is materialized at once and closed by one binary search of the
key ``u * n + w`` against the global forward-edge key list (which is
already sorted, because rows ascend and each row is sorted).

Returns ``(triangles, edges_examined)``; the work accounting is the
per-vertex loop's — ``targets.size + row.size`` for every base vertex with
a non-empty wedge set — so blocking changes the time, not the count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["count_forward_triangles", "INTERSECT_BLOCK_EDGES"]

# Upper bound on second-level expansion size per block (bounds peak memory
# to a few tens of MB of int64).
INTERSECT_BLOCK_EDGES = 1 << 22


def count_forward_triangles(
    indptr: np.ndarray, indices: np.ndarray
) -> tuple[int, int]:
    """Count triangles in a forward (low -> high oriented) CSR adjacency."""
    num_vertices = indptr.size - 1
    if num_vertices == 0 or indices.size == 0:
        return 0, 0
    deg = np.diff(indptr)
    # Per-u size of the concatenated neighbor forward lists (the wedge count).
    prefix = np.concatenate([[0], np.cumsum(deg[indices])])
    wedges_per_u = prefix[indptr[1:]] - prefix[indptr[:-1]]
    qualifying = (deg >= 2) & (wedges_per_u > 0)
    base = np.flatnonzero(qualifying)
    if base.size == 0:
        return 0, 0
    owners = np.repeat(np.arange(num_vertices, dtype=np.int64), deg)
    edge_keys = owners * num_vertices + indices
    wedge_cum = np.cumsum(wedges_per_u[base])
    total = 0
    examined = 0
    lo = 0
    while lo < base.size:
        floor = int(wedge_cum[lo - 1]) if lo else 0
        hi = max(
            int(np.searchsorted(wedge_cum, floor + INTERSECT_BLOCK_EDGES)) + 1,
            lo + 1,
        )
        block = base[lo:hi]
        lo = hi
        # First level: u -> v over the block.
        starts = indptr[block]
        counts = deg[block]
        ends = np.cumsum(counts)
        flat = np.repeat(starts - (ends - counts), counts) + np.arange(
            int(ends[-1]), dtype=np.int64
        )
        mids = indices[flat]
        src_u = np.repeat(block, counts)
        # Second level: v -> w, base vertex carried through to u.
        counts2 = deg[mids]
        ends2 = np.cumsum(counts2)
        total2 = int(ends2[-1]) if ends2.size else 0
        if total2 == 0:
            continue
        flat2 = np.repeat(indptr[mids] - (ends2 - counts2), counts2) + np.arange(
            total2, dtype=np.int64
        )
        wedge_u = np.repeat(src_u, counts2)
        wedge_w = indices[flat2]
        keys = wedge_u * num_vertices + wedge_w
        pos = np.searchsorted(edge_keys, keys)
        pos[pos == edge_keys.size] = 0
        total += int((edge_keys[pos] == keys).sum())
        examined += total2 + int(deg[block].sum())
    return total, examined
