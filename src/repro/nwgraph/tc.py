"""NWGraph triangle counting: relabel on the edge list, then the shared count.

Two NWGraph choices the paper highlights:

* the degree-sort **relabel is performed on the flat edge list** before
  compressing to CSR — "a much more efficient strategy than sorting and
  relabeling on the compressed graph" — and the relabel *is* timed while
  the final compression is not (GAP timing rules);
* rows are distributed **cyclically** across workers, which gave
  near-optimal load balance on skewed Web.  That is a scheduling choice
  with no effect on a sequential count or its work counters, so it is
  recorded as unmodelled rather than looped over.
"""

from __future__ import annotations

import numpy as np

from ..graphs import CSRGraph
from ..la.intersect import count_forward_triangles

__all__ = ["nwgraph_tc"]


def nwgraph_tc(graph: CSRGraph) -> int:
    """Order-invariant TC with an edge-list relabel (always applied)."""
    n = graph.num_vertices
    src, dst = graph.edge_array()

    # Relabel on the edge list: rank vertices by ascending degree.
    degrees = np.bincount(src, minlength=n)
    order = np.lexsort((np.arange(n), degrees))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    src, dst = rank[src], rank[dst]

    # Keep the forward orientation and compress (compression untimed in the
    # original; a single vectorized pass here).
    keep = dst > src
    src, dst = src[keep], dst[keep]
    sort_order = np.lexsort((dst, src))
    src, dst = src[sort_order], dst[sort_order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])

    return count_forward_triangles(indptr, dst)
