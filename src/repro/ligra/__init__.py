"""Ligra-style framework — the study's extensibility demonstration.

The paper's discussion proposes reusing its procedures to evaluate
additional frameworks; this package does exactly that with a seventh
framework in the frontier-centric style of Shun & Blelloch's Ligra.  Its
``edgeMap`` is :func:`repro.la.edge_map`, the operator GraphIt's engine
runs too, and its frontiers are plain sorted id arrays.  It is registered
as an *extended* framework: ``repro.frameworks.get("ligra")`` works
everywhere (runner, verification, tables), while the paper-comparison
tooling keeps scoring only the original six.
"""

from __future__ import annotations

import numpy as np

from ..frameworks.base import Framework, FrameworkAttributes, RunContext
from ..gapbs.tc import triangle_count
from ..graphs import CSRGraph
from .kernels import ligra_bc, ligra_bfs, ligra_cc, ligra_pr, ligra_sssp

__all__ = [
    "LigraFramework",
    "ligra_bfs",
    "ligra_sssp",
    "ligra_cc",
    "ligra_pr",
    "ligra_bc",
]


class LigraFramework(Framework):
    """The Ligra-style frontier framework."""

    attributes = FrameworkAttributes(
        name="ligra",
        full_name="Ligra-style (extension)",
        framework_type="high-level library",
        graph_structure="outgoing & incoming edges",
        abstraction="frontier-centric (edgeMap)",
        synchronization="level-synchronous",
        dependences="NumPy (this reproduction)",
        intended_users="graph domain experts",
        algorithms={
            "bfs": "Direction-optimizing (adaptive edgeMap)",
            "sssp": "Frontier Bellman-Ford",
            "cc": "Frontier label propagation",
            "pr": "Jacobi SpMV",
            "bc": "Brandes (frontier passes)",
            "tc": "Order invariant + heuristic relabel",
        },
        unmodelled=("Ligra's shared-memory parallel scheduler",),
    )

    def bfs(self, graph: CSRGraph, source: int, ctx: RunContext = RunContext()) -> np.ndarray:
        return ligra_bfs(graph, source)

    def sssp(self, graph: CSRGraph, source: int, ctx: RunContext = RunContext()) -> np.ndarray:
        return ligra_sssp(graph, source)

    def pagerank(
        self,
        graph: CSRGraph,
        ctx: RunContext = RunContext(),
        damping: float = 0.85,
        tolerance: float = 1e-4,
        max_iterations: int = 100,
    ) -> np.ndarray:
        return ligra_pr(graph, damping, tolerance, max_iterations)

    def connected_components(self, graph: CSRGraph, ctx: RunContext = RunContext()) -> np.ndarray:
        return ligra_cc(graph)

    def betweenness(
        self, graph: CSRGraph, sources: np.ndarray, ctx: RunContext = RunContext()
    ) -> np.ndarray:
        return ligra_bc(graph, sources)

    def triangle_count(self, graph: CSRGraph, ctx: RunContext = RunContext()) -> int:
        undirected = graph.to_undirected() if graph.directed else graph
        return triangle_count(undirected, seed=ctx.seed)
