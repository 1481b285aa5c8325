"""Galois SSSP: delta-stepping on an OBIM priority worklist.

The bulk-synchronous variant drains one priority bucket per round (a global
barrier each time the bucket refills), which is plain unfused
:func:`repro.la.delta_stepping`; the asynchronous variant pops chunks in
priority order and relaxes them eagerly through the same ``relax``, letting
fresh distances flow into later chunks without barriers.  Galois has no
bucket-fusion optimization — the paper attributes GAP's SSSP edge over
Galois exactly to that — and the async variant is what narrows the gap on
Road.
"""

from __future__ import annotations

import numpy as np

from .. import counters
from ..graphs import CSRGraph
from ..la import delta_stepping, relax
from ..worklist import ASYNC_CHUNK_SIZE, OrderedByIntegerMetric

__all__ = ["sync_delta_stepping", "async_delta_stepping"]


def sync_delta_stepping(graph: CSRGraph, source: int, delta: int = 16) -> np.ndarray:
    """Bulk-synchronous delta-stepping; one barrier per bucket refill."""
    return delta_stepping(graph.indptr, graph.indices, graph.weights, source, delta)


def async_delta_stepping(
    graph: CSRGraph, source: int, delta: int = 16, chunk_size: int = ASYNC_CHUNK_SIZE
) -> np.ndarray:
    """Asynchronous delta-stepping: eager chunk-at-a-time relaxation.

    A per-vertex *on-worklist* flag suppresses duplicate queue entries, the
    standard Galois discipline: an improved vertex already awaiting
    processing is not pushed again (its relaxation will read the freshest
    distance anyway).  Without the flag, eager execution re-relaxes a
    vertex once per improvement event and the redundant work explodes.
    """
    n = graph.num_vertices
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    queued = np.zeros(n, dtype=bool)
    queued[source] = True
    obim = OrderedByIntegerMetric(chunk_size)
    obim.push(np.array([source], dtype=np.int64), np.array([0], dtype=np.int64))

    while True:
        popped = obim.pop_chunk()
        if popped is None:
            break
        _, chunk = popped
        counters.add_vertices(chunk.size)
        # With the on-worklist flag each vertex has at most one entry, so
        # every pop is processed with its *current* distance (an entry whose
        # bucket has since improved just relaxes early — harmless).
        queued[chunk] = False
        improved, examined = relax(
            graph.indptr, graph.indices, graph.weights, chunk, dist
        )
        counters.add_edges(examined)
        if improved.size:
            improved = improved[~queued[improved]]
            queued[improved] = True
            obim.push(improved, (dist[improved] // delta).astype(np.int64))
    return dist
