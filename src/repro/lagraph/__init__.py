"""LAGraph-style algorithms on the GraphBLAS engine (SuiteSparse framework).

The six GAP kernels expressed as sparse linear algebra over semirings,
following the paper's Section III-A: BFS via masked ``any_secondi``
products, SSSP via ``min_plus`` delta-stepping, FastSV connected
components, ``plus_second`` PageRank, batch Brandes BC, and the
``C<L> = L*U'`` triangle count.
"""

from __future__ import annotations

import numpy as np

from ..frameworks.base import Framework, FrameworkAttributes, RunContext
from ..graphs import CSRGraph
from .bc import lagraph_bc
from .bfs import lagraph_bfs
from .cc import fastsv
from .pagerank import lagraph_pagerank
from .sssp import lagraph_sssp
from .tc import lagraph_tc

__all__ = [
    "SuiteSparseFramework",
    "lagraph_bfs",
    "lagraph_sssp",
    "fastsv",
    "lagraph_pagerank",
    "lagraph_bc",
    "lagraph_tc",
]


class SuiteSparseFramework(Framework):
    """SuiteSparse:GraphBLAS + LAGraph as a Framework."""

    attributes = FrameworkAttributes(
        name="suitesparse",
        full_name="SuiteSparse GraphBLAS (LAGraph)",
        framework_type="high-level library",
        graph_structure="outgoing & incoming edges w/ (opt.) hypersparsity",
        abstraction="sparse linear algebra",
        synchronization="level-synchronous",
        dependences="C11, OpenMP (original); NumPy/SciPy (this reproduction)",
        intended_users="graph/matrix domain experts",
        algorithms={
            "bfs": "Direction-optimizing (any_secondi masked products)",
            "sssp": "Delta-stepping (min_plus)",
            "cc": "FastSV",
            "pr": "Jacobi SpMV (plus_second)",
            "bc": "Brandes (batched, plus_first)",
            "tc": "C<L>=L*U' (plus_pair) + heuristic presort",
        },
        unmodelled=(
            "64-bit index requirement (vs 32-bit elsewhere)",
            "non-blocking mode / kernel fusion (also absent upstream)",
        ),
    )

    def bfs(self, graph: CSRGraph, source: int, ctx: RunContext = RunContext()) -> np.ndarray:
        return lagraph_bfs(graph, source)

    def sssp(self, graph: CSRGraph, source: int, ctx: RunContext = RunContext()) -> np.ndarray:
        return lagraph_sssp(graph, source, delta=ctx.delta)

    def pagerank(
        self,
        graph: CSRGraph,
        ctx: RunContext = RunContext(),
        tolerance: float = 1e-4,
        max_iterations: int = 100,
    ) -> np.ndarray:
        return lagraph_pagerank(graph, tolerance, max_iterations)

    def connected_components(self, graph: CSRGraph, ctx: RunContext = RunContext()) -> np.ndarray:
        return fastsv(graph)

    def betweenness(
        self, graph: CSRGraph, sources: np.ndarray, ctx: RunContext = RunContext()
    ) -> np.ndarray:
        return lagraph_bc(graph, sources)

    def triangle_count(self, graph: CSRGraph, ctx: RunContext = RunContext()) -> int:
        undirected = graph.to_undirected() if graph.directed else graph
        return lagraph_tc(undirected, seed=ctx.seed)
