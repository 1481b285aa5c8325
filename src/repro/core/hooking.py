"""Vectorized hooking / pointer-jumping primitives for connectivity kernels.

Afforest (GAP, Galois, NWGraph), Shiloach–Vishkin (GKC), and FastSV
(SuiteSparse) are all built from the same two moves — *hooking* (pointing a
component representative at a smaller label across an edge) and
*compression* (pointer jumping toward the root).  The frameworks differ in
which edges they hook, in what order, and how aggressively they compress;
those policies live in the framework packages, while the shared vectorized
moves live here — and so does :func:`afforest`, the one order of those moves
that Table III gives three frameworks, with its finish phase
(:func:`converge`, or Galois' :func:`converge_in_blocks`) as the argument.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..graphs import CSRGraph
from ..la import gather_edges
from . import counters

__all__ = [
    "compress",
    "hook_pass",
    "converge",
    "converge_in_blocks",
    "majority_component",
    "afforest",
]

# Afforest links each vertex to this many of its first neighbors before
# sampling for the giant component (Sutton et al.'s default).
NEIGHBOR_ROUNDS = 2
# Finish edges per block of Galois' edge-blocked finish.
EDGE_BLOCK = 1 << 15


def compress(comp: np.ndarray) -> None:
    """Full path compression: jump pointers until every label is a root."""
    while True:
        parents = comp[comp]
        if np.array_equal(parents, comp):
            return
        np.copyto(comp, parents)


def hook_pass(comp: np.ndarray, src: np.ndarray, dst: np.ndarray) -> bool:
    """One hooking sweep over an edge set; returns whether anything changed.

    For each edge, the larger of the two endpoint labels is pointed at the
    smaller (via the labels' current representatives), then one round of
    pointer jumping is applied.  Equivalent to the lock-free min-hooking in
    the C++ implementations.
    """
    counters.add_edges(src.size)
    if src.size == 0:
        return False
    cu = comp[src]
    cv = comp[dst]
    low = np.minimum(cu, cv)
    before = comp.copy()
    np.minimum.at(comp, cu, low)
    np.minimum.at(comp, cv, low)
    comp[:] = comp[comp]
    return not np.array_equal(before, comp)


def converge(comp: np.ndarray, src: np.ndarray, dst: np.ndarray) -> int:
    """Repeat hook passes + compression over an edge set until stable.

    Returns the number of passes taken.  On exit every connected component
    of the given edge set carries a single minimum label.
    """
    passes = 0
    while True:
        passes += 1
        counters.add_iteration()
        changed = hook_pass(comp, src, dst)
        compress(comp)
        if not changed:
            return passes


def converge_in_blocks(comp: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
    """Galois' edge-blocked finish: converge block by block, then globally.

    Compressing between blocks shortens the chains later blocks must walk;
    the final global pass guarantees cross-block merges are complete.  An
    edge set that fits one block is just :func:`converge`.
    """
    if src.size > EDGE_BLOCK:
        for start in range(0, src.size, EDGE_BLOCK):
            counters.add_round()
            converge(comp, src[start: start + EDGE_BLOCK], dst[start: start + EDGE_BLOCK])
    converge(comp, src, dst)


def majority_component(
    comp: np.ndarray, rng: np.random.Generator, num_samples: int = 1024
) -> int:
    """Sample labels to guess the largest component (Afforest's shortcut).

    Mirrors the sampling heuristic of Sutton et al.: look at a fixed number
    of random vertices and return the most frequent label among them.
    """
    if comp.size == 0:
        return 0
    samples = comp[rng.integers(0, comp.size, size=min(num_samples, comp.size))]
    labels, freq = np.unique(samples, return_counts=True)
    return int(labels[np.argmax(freq)])


def afforest(
    graph: CSRGraph,
    seed: int = 0,
    finish: Callable[[np.ndarray, np.ndarray, np.ndarray], object] = converge,
) -> np.ndarray:
    """Weakly connected component labels via Afforest (Sutton et al., IPDPS'18).

    1. **Neighbor rounds** — link every vertex to its first few neighbors
       only (O(V) work), usually enough to form the giant component.
    2. **Sampling** — guess the giant component's label from a vertex sample.
    3. **Finish** — ``finish(comp, src, dst)`` over the edges of the
       vertices *outside* the giant component only, skipping the vast
       majority of edge work.  Unlike the C++ code (whose Link retries a CAS
       until the union lands) a hook pass can lose contended unions, so the
       finish re-examines *all* edges of outside vertices — out- and, for
       directed graphs, in-edges — rather than skipping the neighbor rounds.
    """
    comp = np.arange(graph.num_vertices, dtype=np.int64)
    for k in range(NEIGHBOR_ROUNDS):
        counters.add_round()
        src = np.flatnonzero(graph.out_degrees > k)
        hook_pass(comp, src, graph.indices[graph.indptr[src] + k])
    compress(comp)

    giant = majority_component(comp, np.random.default_rng(seed))
    outside = np.flatnonzero(comp != giant)
    counters.note("vertices_outside_giant", float(outside.size))
    if outside.size:
        src, dst = gather_edges(graph.indptr, graph.indices, outside)
        if graph.directed:
            src_in, dst_in = gather_edges(graph.in_indptr, graph.in_indices, outside)
            src, dst = np.concatenate([src, src_in]), np.concatenate([dst, dst_in])
        finish(comp, src, dst)
        compress(comp)
    return comp
