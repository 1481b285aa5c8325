"""NWGraph: a generic graph library over range-of-ranges concepts.

Kernels follow Table III's NWGraph column: direction-optimizing BFS (with
a deliberately simple switching heuristic), delta-stepping SSSP (no bucket
fusion), Afforest CC, Gauss-Seidel PR, Brandes BC without direction
optimization, and order-invariant TC with an edge-list relabel and cyclic
row distribution.  Per the paper, NWGraph's Baseline-to-Optimized gains
came almost entirely from hyperthreading, which a sequential reproduction
cannot express (recorded as unmodelled); the one modelled Optimized tweak
is BFS's early-exit pull — otherwise both modes run identically here.
"""

from __future__ import annotations

import numpy as np

from ..frameworks.base import Framework, FrameworkAttributes, RunContext
from ..graphs import CSRGraph
from .bc import nwgraph_bc
from .bfs import nwgraph_bfs
from .cc import nwgraph_cc
from .pagerank import nwgraph_pagerank
from .sssp import nwgraph_sssp
from .tc import nwgraph_tc

__all__ = [
    "NWGraphFramework",
    "nwgraph_bfs",
    "nwgraph_sssp",
    "nwgraph_cc",
    "nwgraph_pagerank",
    "nwgraph_bc",
    "nwgraph_tc",
]


class NWGraphFramework(Framework):
    """NWGraph as a Framework."""

    attributes = FrameworkAttributes(
        name="nwgraph",
        full_name="NWGraph",
        framework_type="header-only library",
        graph_structure="adjacency list as range of ranges",
        abstraction="range-centric w/ tuple edge properties",
        synchronization="algorithm-specific, level-synchronous",
        dependences="C++17, libtbb (original); NumPy (this reproduction)",
        intended_users="practicing C++ programmers",
        algorithms={
            "bfs": "Direction-optimizing (simple switch)",
            "sssp": "Delta-stepping",
            "cc": "Afforest",
            "pr": "Gauss-Seidel SpMV",
            "bc": "Brandes (no direction opt.)",
            "tc": "Order invariant, edge-list relabel, cyclic rows",
        },
        unmodelled=(
            "hyperthreading (the paper's entire Baseline->Optimized delta)",
            "TBB / std::async parallel backends",
            "cyclic row distribution in TC (load balance only)",
        ),
    )

    def bfs(self, graph: CSRGraph, source: int, ctx: RunContext = RunContext()) -> np.ndarray:
        # Optimized mode stops each pull-range scan at the first frontier
        # parent via the shared early-exit kernel; Baseline full-scans.
        return nwgraph_bfs(graph, source, pull_early_exit=ctx.optimized)

    def sssp(self, graph: CSRGraph, source: int, ctx: RunContext = RunContext()) -> np.ndarray:
        return nwgraph_sssp(graph, source, delta=ctx.delta)

    def pagerank(
        self,
        graph: CSRGraph,
        ctx: RunContext = RunContext(),
        damping: float = 0.85,
        tolerance: float = 1e-4,
        max_iterations: int = 100,
    ) -> np.ndarray:
        return nwgraph_pagerank(graph, damping, tolerance, max_iterations)

    def connected_components(self, graph: CSRGraph, ctx: RunContext = RunContext()) -> np.ndarray:
        return nwgraph_cc(graph, seed=ctx.seed)

    def betweenness(
        self, graph: CSRGraph, sources: np.ndarray, ctx: RunContext = RunContext()
    ) -> np.ndarray:
        return nwgraph_bc(graph, sources)

    def triangle_count(self, graph: CSRGraph, ctx: RunContext = RunContext()) -> int:
        undirected = graph.to_undirected() if graph.directed else graph
        return nwgraph_tc(undirected)
