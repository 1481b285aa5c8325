"""Galois: data-centric operator formulation with sync/async scheduling.

The kernels follow Table III's Galois column and the paper's Section V
narrative: direction-optimizing BFS and delta-stepping SSSP, each with a
bulk-synchronous and an asynchronous variant selected by a sampling
heuristic under Baseline rules and by known graph diameter under Optimized
rules; hybrid Afforest CC (edge-blocked on Web when Optimized);
Gauss-Seidel PR; Brandes BC (without GAP's successor bitmap); and GAP's
order-invariant TC (relabel untimed under Optimized rules, as the Galois
team ran it).
"""

from __future__ import annotations

import numpy as np

from ..frameworks.base import Framework, FrameworkAttributes, RunContext
from ..gapbs.tc import triangle_count
from ..graphs import CSRGraph, degree_skewed, forward_adjacency, permute
from ..la.hooking import afforest, converge, converge_in_blocks
from ..la.intersect import count_forward_triangles, relabel_permutation
from .bc import galois_bc, galois_bc_async
from .bfs import async_bfs, sync_bfs
from .pagerank import gauss_seidel_pagerank
from .sssp import async_delta_stepping, sync_delta_stepping

__all__ = [
    "GaloisFramework",
    "sync_bfs",
    "async_bfs",
    "sync_delta_stepping",
    "async_delta_stepping",
    "gauss_seidel_pagerank",
    "galois_bc",
    "galois_bc_async",
]

# Graphs the paper's Galois team treated as high-diameter when tuning the
# Optimized runs (they knew Road's diameter; everything else is low).
HIGH_DIAMETER_GRAPHS = frozenset({"road"})


class GaloisFramework(Framework):
    """Galois as a Framework."""

    attributes = FrameworkAttributes(
        name="galois",
        full_name="Galois",
        framework_type="generic high-level library",
        graph_structure="outgoing and/or incoming edges",
        abstraction="vertex, edge, or chunked-edges centric",
        synchronization="level-synchronous or asynchronous",
        dependences="C++17, boost, libllvm (original); NumPy (this reproduction)",
        intended_users="graph domain experts",
        algorithms={
            "bfs": "Direction-optimizing + async variant",
            "sssp": "Delta-stepping + async variant",
            "cc": "Hybrid Afforest + async variant",
            "pr": "Gauss-Seidel SpMV",
            "bc": "Brandes + async variant",
            "tc": "Order invariant + heuristic relabel",
        },
        unmodelled=(
            "huge pages / NUMA-blocked allocation",
            "work stealing & NUMA-aware load balancing",
        ),
    )

    def _use_async(self, graph: CSRGraph, ctx: RunContext) -> bool:
        """Scheduling choice: heuristic (Baseline) or known diameter (Optimized).

        Baseline rules allow no per-graph tuning, so Galois samples vertices
        for a power-law degree distribution (the paper: "similar to that in
        GAP for TC") and assumes anything else has a high diameter, favouring
        the asynchronous variants.  That misfires on Urand — uniform degrees
        but a low diameter — as the paper's footnote notes.
        """
        if ctx.optimized and ctx.graph_name:
            return ctx.graph_name in HIGH_DIAMETER_GRAPHS
        return not degree_skewed(graph, ctx.seed)

    def bfs(self, graph: CSRGraph, source: int, ctx: RunContext = RunContext()) -> np.ndarray:
        if self._use_async(graph, ctx):
            return async_bfs(graph, source)
        # Optimized runs also stop each pull row at its first frontier
        # parent (shared early-exit kernel); Baseline keeps the full scan.
        return sync_bfs(graph, source, pull_early_exit=ctx.optimized)

    def sssp(self, graph: CSRGraph, source: int, ctx: RunContext = RunContext()) -> np.ndarray:
        if self._use_async(graph, ctx):
            return async_delta_stepping(graph, source, delta=ctx.delta)
        return sync_delta_stepping(graph, source, delta=ctx.delta)

    def pagerank(
        self,
        graph: CSRGraph,
        ctx: RunContext = RunContext(),
        damping: float = 0.85,
        tolerance: float = 1e-4,
        max_iterations: int = 100,
    ) -> np.ndarray:
        return gauss_seidel_pagerank(graph, damping, tolerance, max_iterations)

    def connected_components(self, graph: CSRGraph, ctx: RunContext = RunContext()) -> np.ndarray:
        """GAP's Afforest; the Optimized run on Web blocked the finish edges.

        Galois' operator formulation permits the non-vertex-program
        neighborhoods Afforest needs.  The edge-blocked finish converges
        fixed-size blocks with compression between them, so early blocks
        shrink the label chains later blocks walk (better load balance).
        """
        edge_blocking = ctx.optimized and ctx.graph_name == "web"
        return afforest(graph, ctx.seed, converge_in_blocks if edge_blocking else converge)

    def betweenness(
        self, graph: CSRGraph, sources: np.ndarray, ctx: RunContext = RunContext()
    ) -> np.ndarray:
        # Same scheduling policy as BFS/SSSP: the Baseline heuristic picks
        # the async variant on assumed-high-diameter graphs (hurting on
        # Urand, as the paper reports); Optimized mode knows the diameters.
        if self._use_async(graph, ctx):
            return galois_bc_async(graph, sources)
        return galois_bc(graph, sources)

    def prepare(self, kernel: str, graph: CSRGraph, ctx: RunContext) -> CSRGraph:
        if kernel == "tc" and ctx.optimized:
            # The Galois team excluded relabel time in the Optimized runs.
            undirected = graph.to_undirected() if graph.directed else graph
            perm = relabel_permutation(undirected, ctx.seed)
            return undirected if perm is None else permute(undirected, perm)
        return graph

    def triangle_count(self, graph: CSRGraph, ctx: RunContext = RunContext()) -> int:
        """GAP's order-invariant TC with its heuristic relabel.

        The paper's differences are scheduling-level (work stealing, not
        modelled) plus one rule: under Optimized rules the relabel is
        excluded from the time, so ``prepare`` did it and only the ordered
        count runs here.
        """
        undirected = graph.to_undirected() if graph.directed else graph
        if ctx.optimized:
            return count_forward_triangles(*forward_adjacency(undirected))
        return triangle_count(undirected, seed=ctx.seed)
