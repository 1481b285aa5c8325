"""GraphIt: algorithms decoupled from schedules (the DSL framework).

Kernels follow Table III's GraphIt column: direction-optimizing BFS,
delta-stepping SSSP *with bucket fusion*, label-propagation CC (its known
weakness — no sampling algorithms in the DSL), Jacobi PR (cache-tiled when
Optimized), Brandes BC with bitvector frontiers and a transposed backward
pass, and order-invariant TC.  Baseline runs use the default schedules;
Optimized runs look up the per-graph schedule table recorded from the
paper's Section V narrative.
"""

from __future__ import annotations

import numpy as np

from ..frameworks.base import Framework, FrameworkAttributes, RunContext
from ..graphs import CSRGraph
from .bc import graphit_bc
from .bfs import graphit_bfs
from .cc import graphit_cc
from .pagerank import graphit_pagerank
from .schedules import baseline_schedule, optimized_schedule
from .sssp import graphit_sssp
from .tc import graphit_tc

__all__ = [
    "GraphItFramework",
    "graphit_bfs",
    "graphit_sssp",
    "graphit_cc",
    "graphit_pagerank",
    "graphit_bc",
    "graphit_tc",
    "baseline_schedule",
    "optimized_schedule",
]


class GraphItFramework(Framework):
    """GraphIt as a Framework."""

    attributes = FrameworkAttributes(
        name="graphit",
        full_name="GraphIt",
        framework_type="domain-specific language compiler",
        graph_structure="outgoing & incoming edges w/ (opt.) blocking",
        abstraction="vertex or edge centric",
        synchronization="level-synchronous",
        dependences="C++11, OpenMP, cilk (original); NumPy (this reproduction)",
        intended_users="graph domain experts",
        algorithms={
            "bfs": "Direction-optimizing (schedulable)",
            "sssp": "Delta-stepping + bucket fusion",
            "cc": "Label propagation",
            "pr": "Jacobi SpMV (+ cache tiling when Optimized)",
            "bc": "Brandes (bitvector frontier, transposed backward)",
            "tc": "Order invariant + heuristic relabel",
        },
        unmodelled=(
            "OpenTuner search over the schedule space",
            "cache-tiling locality benefit (structure executed, effect not)",
        ),
    )

    def _schedule(self, kernel: str, ctx: RunContext):
        if ctx.optimized and ctx.graph_name:
            return optimized_schedule(kernel, ctx.graph_name)
        return baseline_schedule(kernel)

    def bfs(self, graph: CSRGraph, source: int, ctx: RunContext = RunContext()) -> np.ndarray:
        return graphit_bfs(graph, source, self._schedule("bfs", ctx))

    def sssp(self, graph: CSRGraph, source: int, ctx: RunContext = RunContext()) -> np.ndarray:
        schedule = self._schedule("sssp", ctx).with_(delta=ctx.delta)
        return graphit_sssp(graph, source, schedule)

    def pagerank(
        self,
        graph: CSRGraph,
        ctx: RunContext = RunContext(),
        damping: float = 0.85,
        tolerance: float = 1e-4,
        max_iterations: int = 100,
    ) -> np.ndarray:
        return graphit_pagerank(
            graph, self._schedule("pr", ctx), damping, tolerance, max_iterations
        )

    def connected_components(self, graph: CSRGraph, ctx: RunContext = RunContext()) -> np.ndarray:
        short_circuit = ctx.optimized and ctx.graph_name == "road"
        return graphit_cc(graph, self._schedule("cc", ctx), short_circuit=short_circuit)

    def betweenness(
        self, graph: CSRGraph, sources: np.ndarray, ctx: RunContext = RunContext()
    ) -> np.ndarray:
        return graphit_bc(graph, sources, self._schedule("bc", ctx))

    def triangle_count(self, graph: CSRGraph, ctx: RunContext = RunContext()) -> int:
        undirected = graph.to_undirected() if graph.directed else graph
        return graphit_tc(undirected, seed=ctx.seed)
