"""Galois SSSP: delta-stepping on an OBIM priority worklist.

The bulk-synchronous variant drains one priority bucket per round (a global
barrier each time the bucket refills); the asynchronous variant pops chunks
in priority order and relaxes them eagerly, letting fresh distances flow
into later chunks without barriers.  Galois has no bucket-fusion
optimization — the paper attributes GAP's SSSP edge over Galois exactly to
that — and the async variant is what narrows the gap on Road.
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..graphs import CSRGraph
from ..la import gather_edges_weighted, unique_ids
from ..worklist import OrderedByIntegerMetric

__all__ = ["sync_delta_stepping", "async_delta_stepping"]

ASYNC_CHUNK = 1024


def _relax_chunk(
    graph: CSRGraph, chunk: np.ndarray, dist: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Relax all out-edges of ``chunk``; returns (improved vertices, dists)."""
    srcs, tgts, weights = gather_edges_weighted(
        graph.indptr, graph.indices, graph.weights, chunk
    )
    counters.add_edges(tgts.size)
    if tgts.size == 0:
        return tgts, np.empty(0, dtype=np.float64)
    candidate = dist[srcs] + weights
    better = candidate < dist[tgts]
    tgts, candidate = tgts[better], candidate[better]
    if tgts.size == 0:
        return tgts, candidate
    np.minimum.at(dist, tgts, candidate)
    improved = unique_ids(tgts, graph.num_vertices)
    return improved, dist[improved]


def sync_delta_stepping(graph: CSRGraph, source: int, delta: int = 16) -> np.ndarray:
    """Bulk-synchronous delta-stepping; one barrier per bucket refill."""
    n = graph.num_vertices
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    obim = OrderedByIntegerMetric()
    obim.push(np.array([source], dtype=np.int64), np.array([0], dtype=np.int64))

    while True:
        priority = obim.current_priority()
        if priority is None:
            break
        members = obim.drain_priority(priority)
        counters.add_round()
        # Lazy deletion: drop entries whose distance moved to another bucket.
        members = unique_ids(members, n)
        live = (dist[members] // delta).astype(np.int64) == priority
        members = members[live]
        if members.size == 0:
            continue
        improved, new_dist = _relax_chunk(graph, members, dist)
        if improved.size:
            obim.push(improved, (new_dist // delta).astype(np.int64))
    return dist


def async_delta_stepping(
    graph: CSRGraph, source: int, delta: int = 16, chunk_size: int = ASYNC_CHUNK
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
        improved, new_dist = _relax_chunk(graph, chunk, dist)
        if improved.size:
            fresh = ~queued[improved]
            improved, new_dist = improved[fresh], new_dist[fresh]
            queued[improved] = True
            obim.push(improved, (new_dist // delta).astype(np.int64))
    return dist
