"""Direction-optimizing BFS: one push/pull policy and the one traversal.

Table III puts four frameworks (GAP, Galois' bulk-synchronous variant, GKC,
NWGraph) on Beamer's direction-optimizing BFS; they differ in *when* they
switch direction, not in what a step does.  This module holds both halves:

* :class:`DirectionOptimizer` — the switching policy, with the frameworks'
  differences as constructor arguments.  The **scout rule** (GAP, Galois,
  GKC, and one half of LAGraph's test) pulls when the frontier's unexplored
  out-edges exceed the remaining untraversed edges divided by ``alpha`` and
  pushes again once the frontier shrinks to ``|V| / BETA``; NWGraph's
  untuned **size-only rule** looks at nothing but the frontier's share of
  ``|V|``.
* :func:`direction_optimizing_traversal` — GAP's loop: push steps, and
  whenever the policy wants it a run of pull steps until the frontier is
  small again.

Nothing here reports to ``counters``: the traversal returns one
:class:`Step` per step taken (direction, frontier size, edges examined) and
the calling framework reports it — a round is a step, and a workload trace
(``core/workload.py``) is the same record read differently.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .frontier import claim_first_writer
from .gather import gather_edges
from .spmv import masked_pull_claim

__all__ = [
    "ALPHA",
    "BETA",
    "DirectionOptimizer",
    "Step",
    "direction_optimizing_traversal",
    "push_step",
    "pull_step",
]

# Beamer et al.'s published constants, identical to the reference GAPBS.
ALPHA = 15
BETA = 18


class DirectionOptimizer:
    """Stateful push/pull policy over one traversal's lifetime.

    ``edges_remaining`` starts at the graph's directed edge count and is
    decremented by :meth:`charge` as frontiers expand, mirroring the
    reference implementation's ``edges_to_check -= scout_count``.
    ``alpha <= 0`` never pulls (the threshold sweep's pure-push baseline).

    ``size_fractions=(pull_above, push_below)`` replaces the scout rule by
    NWGraph's: pull once the frontier holds more than ``pull_above`` of the
    vertices, push again below ``push_below``; no edge count is consulted.

    ``switches`` counts the times a traversal entered the pull regime.
    """

    __slots__ = (
        "alpha",
        "num_vertices",
        "edges_remaining",
        "size_fractions",
        "switches",
    )

    def __init__(
        self,
        num_vertices: int,
        num_edges: int,
        alpha: int = ALPHA,
        size_fractions: tuple[float, float] | None = None,
    ) -> None:
        self.alpha = alpha
        self.num_vertices = num_vertices
        self.edges_remaining = int(num_edges)
        self.size_fractions = size_fractions
        self.switches = 0

    def scout_count(self, out_degrees: np.ndarray, frontier: np.ndarray) -> int:
        """Total out-degree of the frontier — the cost of pushing it.

        The size-only rule consults no edge count and scouts 0.
        """
        if frontier.size == 0 or self.size_fractions is not None:
            return 0
        return int(out_degrees[frontier].sum())

    def charge(self, edges: int) -> None:
        """Account ``edges`` as no longer untraversed."""
        self.edges_remaining -= int(edges)

    def wants_pull(self, scout: int, frontier_size: int = 0) -> bool:
        """True when pushing this frontier crosses the policy's threshold."""
        if self.size_fractions is not None:
            return frontier_size / self.num_vertices > self.size_fractions[0]
        return self.alpha > 0 and scout > max(self.edges_remaining, 1) // self.alpha

    def frontier_is_small(self, frontier_size: int) -> bool:
        """True when a pulled frontier is small enough to resume pushing."""
        if self.size_fractions is not None:
            return frontier_size / self.num_vertices < self.size_fractions[1]
        return frontier_size <= max(self.num_vertices, 1) // BETA


class Step(NamedTuple):
    """What one step of a traversal did."""

    direction: str  # "push" | "pull"
    frontier_size: int
    edges_examined: int


def push_step(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray, parents: np.ndarray
) -> tuple[np.ndarray, int]:
    """Top-down step: ``(next frontier, edges examined)``, updating ``parents``.

    First-writer-wins parent assignment, like the compare-and-swap in the
    reference code: of all frontier edges into an unvisited target, the one
    appearing first claims it.
    """
    sources, targets = gather_edges(indptr, indices, frontier)
    unvisited = parents[targets] < 0
    fresh = claim_first_writer(
        parents, targets[unvisited], sources[unvisited], parents.size
    )
    return fresh, int(targets.size)


def pull_step(
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    frontier: np.ndarray,
    parents: np.ndarray,
    early_exit: bool = False,
) -> tuple[np.ndarray, int]:
    """Bottom-up step: unvisited vertices search in-neighbors for a parent.

    The frontier becomes a bitmap; every unvisited vertex scans its whole
    in-adjacency, or with ``early_exit`` stops at its first frontier member
    (the reference C++ ``break``), which examines fewer edges and finds the
    same parents.
    """
    frontier_bits = np.zeros(parents.size, dtype=bool)
    frontier_bits[frontier] = True
    return masked_pull_claim(
        in_indptr,
        in_indices,
        np.flatnonzero(parents < 0),
        frontier_bits,
        parents,
        early_exit=early_exit,
    )


def direction_optimizing_traversal(
    indptr: np.ndarray,
    indices: np.ndarray,
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    source: int,
    policy: DirectionOptimizer,
    pull_early_exit: bool = False,
) -> tuple[np.ndarray, list[Step]]:
    """BFS from ``source`` under ``policy``: ``(parents, steps)``.

    ``parents[v]`` is the vertex ``v`` was first reached from (``-1`` when
    unreached, the source its own parent).  The traversal ends with the
    step that discovers nothing.
    """
    n = indptr.size - 1
    parents = np.full(n, -1, dtype=np.int64)
    parents[source] = source
    frontier = np.array([source], dtype=np.int64)
    out_degrees = np.diff(indptr)
    steps: list[Step] = []

    while frontier.size:
        scout = policy.scout_count(out_degrees, frontier)
        policy.charge(scout)
        if policy.wants_pull(scout, frontier.size):
            policy.switches += 1
            while frontier.size and not policy.frontier_is_small(frontier.size):
                fresh, examined = pull_step(
                    in_indptr, in_indices, frontier, parents, pull_early_exit
                )
                steps.append(Step("pull", int(frontier.size), examined))
                frontier = fresh
            if frontier.size == 0:
                break
        fresh, examined = push_step(indptr, indices, frontier, parents)
        steps.append(Step("push", int(frontier.size), examined))
        frontier = fresh
    return parents, steps
