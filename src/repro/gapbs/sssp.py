"""GAP reference SSSP: delta-stepping with bucket fusion.

Delta-stepping (Meyer & Sanders) partitions tentative distances into
buckets of width ``delta`` and settles buckets in priority order.  The GAP
reference additionally incorporates GraphIt's *bucket fusion* optimization
(Zhang et al., CGO'20): when relaxations re-populate the **current** bucket,
the refill is processed immediately in a tight local loop instead of paying
a global synchronization round.  Without fusion, every same-bucket refill
costs a full round — on a high-diameter graph like Road that is thousands
of extra rounds, which is exactly the effect the paper measures.

The body is :func:`repro.la.delta_stepping`; fusion is the argument GAP
passes to it.  ``delta_stepping(..., bucket_fusion=False)`` exposes the
unfused variant — what Galois, GKC and NWGraph run — for the ablation bench.
"""

from __future__ import annotations

import numpy as np

from .. import la
from ..graphs import CSRGraph

__all__ = ["delta_stepping"]

# When a same-bucket refill is larger than this, a real implementation
# re-balances across threads (a synchronization); fused processing only
# happens below the threshold, per the GraphIt paper's load-balance guard.
FUSION_THRESHOLD = 1024


def delta_stepping(
    graph: CSRGraph,
    source: int,
    delta: int = 16,
    bucket_fusion: bool = True,
) -> np.ndarray:
    """Compute shortest-path distances from ``source``.

    Args:
        graph: A weighted graph (``graph.weights`` must be set).
        source: Root vertex.
        delta: Bucket width; GAP allows tuning this per graph even under
            Baseline rules because it changes performance by orders of
            magnitude.
        bucket_fusion: Process same-bucket refills immediately (the GAP
            reference behaviour).  Disable for the ablation.

    Returns:
        float64 distances, ``inf`` for unreachable vertices.
    """
    return la.delta_stepping(
        graph.indptr,
        graph.indices,
        graph.weights,
        source,
        delta,
        FUSION_THRESHOLD if bucket_fusion else 0,
    )
