"""Workload characterization: round-by-round traversal traces.

The GAP benchmark "was designed in conjunction with a workload
characterization" (Beamer et al., IISWC'15) whose central observation the
paper repeats: topology drives behaviour.  This module makes that
observable per run — it reads the round-by-round record of the reference
BFS (frontier size, edges examined, and the push/pull direction each round
ran in), which is the data behind the classic direction-optimization plots.

``sparkline`` renders a trace as inline ASCII for the examples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs import CSRGraph
from ..la import DirectionOptimizer, direction_optimizing_traversal

__all__ = ["RoundTrace", "FrontierTrace", "trace_bfs", "sparkline"]


@dataclass(frozen=True)
class RoundTrace:
    """One BFS round: the frontier, the work, and the direction it ran in."""

    round_index: int
    frontier_size: int
    edges_examined: int
    discovered: int
    direction: str  # "push" | "pull"


@dataclass(frozen=True)
class FrontierTrace:
    """A full traversal trace plus summary statistics."""

    source: int
    rounds: list[RoundTrace]

    @property
    def num_rounds(self) -> int:
        """Number of traversal rounds: steps taken until one found nothing."""
        return len(self.rounds)

    @property
    def peak_frontier(self) -> int:
        """Largest frontier observed."""
        return max((r.frontier_size for r in self.rounds), default=0)

    @property
    def pull_rounds(self) -> int:
        """Rounds the traversal ran bottom-up."""
        return sum(1 for r in self.rounds if r.direction == "pull")

    def frontier_sizes(self) -> list[int]:
        """Frontier size per round (the classic plot's y-series)."""
        return [r.frontier_size for r in self.rounds]


def trace_bfs(graph: CSRGraph, source: int) -> FrontierTrace:
    """Trace GAP's BFS from ``source``, recording per-round frontier shape.

    The rounds are the step record the shared traversal returns under the
    reference's scout rule, so the *direction* column is what the kernel
    did at each round, not a second opinion about it.
    """
    policy = DirectionOptimizer(graph.num_vertices, graph.num_edges)
    _, steps = direction_optimizing_traversal(
        graph.indptr, graph.indices, graph.in_indptr, graph.in_indices, source, policy
    )
    # What a step discovered is the frontier of the next; the last found nothing.
    discovered = [step.frontier_size for step in steps[1:]] + [0]
    rounds = [
        RoundTrace(index, step.frontier_size, step.edges_examined, found, step.direction)
        for index, (step, found) in enumerate(zip(steps, discovered))
    ]
    return FrontierTrace(source=source, rounds=rounds)


_BARS = " .:-=+*#%@"


def sparkline(values: list[int], width: int = 60) -> str:
    """Render a value series as a fixed-width ASCII sparkline."""
    if not values:
        return ""
    values_array = np.asarray(values, dtype=np.float64)
    if len(values) > width:
        # Downsample by max within buckets so peaks stay visible.
        buckets = np.array_split(values_array, width)
        values_array = np.array([b.max() for b in buckets])
    top = values_array.max()
    if top <= 0:
        return " " * len(values_array)
    scaled = np.ceil(values_array / top * (len(_BARS) - 1)).astype(int)
    return "".join(_BARS[level] for level in scaled)
