"""Common interface implemented by all six evaluated frameworks.

The GAP benchmark specifies six graph *problems* and lets each framework
choose its own algorithms (Table III).  This module defines the problem
interface — one method per kernel with GAP's output semantics — plus the
metadata records behind Tables II and III, and the Baseline/Optimized run
modes of Section IV.

Output semantics (shared by every framework, checked by ``repro.core.verify``):

* ``bfs`` returns a parent array: ``parent[source] == source``, unreachable
  vertices get ``-1`` (GAP tracks parents, not depths).
* ``sssp`` returns float64 distances; unreachable vertices get ``inf``.
* ``pagerank`` returns float64 scores summing to ~1, converged until the
  L1 change per iteration falls below the tolerance.
* ``connected_components`` returns int64 labels; two vertices share a label
  iff they are weakly connected.
* ``betweenness`` returns float64 accumulated Brandes dependencies over the
  given source vertices (GAP approximates BC with 4 roots per trial).
* ``triangle_count`` returns the number of triangles, each counted once.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field

import numpy as np

from ..graphs import CSRGraph

__all__ = [
    "Framework",
    "FrameworkAttributes",
    "KERNELS",
    "Mode",
    "RunContext",
]

# Kernel names in the paper's presentation order.
KERNELS: tuple[str, ...] = ("bfs", "sssp", "cc", "pr", "bc", "tc")


class Mode(enum.Enum):
    """The two rule sets of Section IV.

    BASELINE forbids per-graph hand tuning (run-time heuristics only);
    OPTIMIZED allows tuning for known graph characteristics, with tuning
    time untimed.
    """

    BASELINE = "baseline"
    OPTIMIZED = "optimized"


@dataclass(frozen=True)
class RunContext:
    """Per-run information handed to a framework kernel.

    Attributes:
        mode: Baseline or Optimized rule set.
        graph_name: Corpus name of the input.  Under BASELINE rules a
            framework must ignore it (except for SSSP's delta, which GAP
            explicitly allows tuning per graph); under OPTIMIZED it may
            select algorithms/schedules per graph, as the paper's teams did.
        delta: SSSP delta-stepping bucket width for this graph.
        seed: Seed for any randomized heuristics (e.g. Afforest sampling).
    """

    mode: Mode = Mode.BASELINE
    graph_name: str = ""
    delta: int = 16
    seed: int = 0

    @property
    def optimized(self) -> bool:
        return self.mode is Mode.OPTIMIZED


@dataclass(frozen=True)
class FrameworkAttributes:
    """Static taxonomy of a framework — one column of Table II.

    ``algorithms`` maps kernel name to the Table III algorithm description.
    ``unmodelled`` lists performance techniques of the real system that a
    pure-Python reproduction cannot express (SIMD, NUMA, ...); they are
    reported, not silently dropped.
    """

    name: str
    full_name: str
    framework_type: str
    graph_structure: str
    abstraction: str
    synchronization: str
    dependences: str
    intended_users: str
    algorithms: dict[str, str] = field(default_factory=dict)
    unmodelled: tuple[str, ...] = ()


class Framework(abc.ABC):
    """Abstract base for the six evaluated frameworks."""

    #: Static Table II / Table III metadata; subclasses must set this.
    attributes: FrameworkAttributes

    @property
    def name(self) -> str:
        return self.attributes.name

    # ------------------------------------------------------------------
    # The six GAP kernels
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def bfs(self, graph: CSRGraph, source: int, ctx: RunContext = RunContext()) -> np.ndarray:
        """Breadth-first search from ``source``; returns the parent array."""

    @abc.abstractmethod
    def sssp(self, graph: CSRGraph, source: int, ctx: RunContext = RunContext()) -> np.ndarray:
        """Single-source shortest paths; returns float64 distances."""

    @abc.abstractmethod
    def pagerank(
        self,
        graph: CSRGraph,
        ctx: RunContext = RunContext(),
        tolerance: float = 1e-4,
        max_iterations: int = 100,
    ) -> np.ndarray:
        """PageRank scores, iterated until the L1 residual < tolerance."""

    @abc.abstractmethod
    def connected_components(self, graph: CSRGraph, ctx: RunContext = RunContext()) -> np.ndarray:
        """Weakly connected component labels."""

    @abc.abstractmethod
    def betweenness(
        self, graph: CSRGraph, sources: np.ndarray, ctx: RunContext = RunContext()
    ) -> np.ndarray:
        """Approximate betweenness centrality from the given roots."""

    @abc.abstractmethod
    def triangle_count(self, graph: CSRGraph, ctx: RunContext = RunContext()) -> int:
        """Total number of triangles (input treated as undirected)."""

    # ------------------------------------------------------------------
    # Untimed preparation hook
    # ------------------------------------------------------------------

    def prepare(self, kernel: str, graph: CSRGraph, ctx: RunContext) -> CSRGraph:
        """Untimed per-kernel preprocessing allowed by the rule set.

        The harness calls this *outside* the timed region.  The default is a
        no-op; frameworks override it where the paper says preprocessing was
        excluded (e.g. Galois' Optimized TC excludes graph relabeling time).
        Baseline rules forbid such exclusions, so overrides must check
        ``ctx.optimized``.
        """
        del kernel, ctx
        return graph

    # ------------------------------------------------------------------
    # Dispatch helper used by the harness
    # ------------------------------------------------------------------

    def run_kernel(
        self,
        kernel: str,
        graph: CSRGraph,
        ctx: RunContext,
        source: int | None = None,
        sources: np.ndarray | None = None,
        pr_tolerance: float = 1e-4,
    ):
        """Invoke one kernel by GAP name; the harness's single entry point."""
        if kernel == "bfs":
            return self.bfs(graph, int(source), ctx)
        if kernel == "sssp":
            return self.sssp(graph, int(source), ctx)
        if kernel == "pr":
            return self.pagerank(graph, ctx, tolerance=pr_tolerance)
        if kernel == "cc":
            return self.connected_components(graph, ctx)
        if kernel == "bc":
            return self.betweenness(graph, sources, ctx)
        if kernel == "tc":
            return self.triangle_count(graph, ctx)
        from ..errors import UnknownKernelError

        raise UnknownKernelError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
