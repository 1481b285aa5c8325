"""Galois connected components: hybrid Afforest (+ edge-blocked variant).

Galois uses the same Afforest algorithm as GAP (Table III marks it
"Hybrid Afforest" with an asynchronous variant).  Its operator formulation
permits the non-vertex-program neighborhoods Afforest needs — the paper
makes this a selling point of Galois' generality.  The Optimized run on Web
used an *edge-blocking* variant of the finish phase for better load
balance; we expose that as ``edge_blocking=True`` (the finish edges are
processed in fixed-size blocks with compression between blocks, letting
early blocks shrink the label chains later blocks walk).
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..core.hooking import compress, converge, hook_pass, majority_component
from ..graphs import CSRGraph
from ..la import gather_edges

__all__ = ["galois_afforest"]

NEIGHBOR_ROUNDS = 2
EDGE_BLOCK = 1 << 15


def _all_edges_of(graph: CSRGraph, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Out- and (for directed graphs) in-edges of the given vertices."""
    src_out, dst_out = gather_edges(graph.indptr, graph.indices, vertices)
    if not graph.directed:
        return src_out, dst_out
    src_in, dst_in = gather_edges(graph.in_indptr, graph.in_indices, vertices)
    return np.concatenate([src_out, src_in]), np.concatenate([dst_out, dst_in])


def galois_afforest(
    graph: CSRGraph,
    seed: int = 0,
    neighbor_rounds: int = NEIGHBOR_ROUNDS,
    edge_blocking: bool = False,
) -> np.ndarray:
    """Afforest with Galois' operator-style finish phase."""
    n = graph.num_vertices
    comp = np.arange(n, dtype=np.int64)

    for k in range(neighbor_rounds):
        counters.add_round()
        has_kth = graph.out_degrees > k
        src = np.flatnonzero(has_kth)
        dst = graph.indices[graph.indptr[src] + k]
        hook_pass(comp, src, dst)
    compress(comp)

    rng = np.random.default_rng(seed)
    giant = majority_component(comp, rng)
    outside = np.flatnonzero(comp != giant)
    counters.note("vertices_outside_giant", float(outside.size))
    if outside.size == 0:
        return comp

    src, dst = _all_edges_of(graph, outside)
    if edge_blocking and src.size > EDGE_BLOCK:
        # Blocked finish: converge block by block; compressing between
        # blocks shortens the chains later blocks must walk.
        for start in range(0, src.size, EDGE_BLOCK):
            counters.add_round()
            converge(comp, src[start: start + EDGE_BLOCK], dst[start: start + EDGE_BLOCK])
        # A final global pass guarantees cross-block merges are complete.
        converge(comp, src, dst)
    else:
        converge(comp, src, dst)
    compress(comp)
    return comp
