"""GAP reference BFS: direction-optimizing (Beamer et al., SC'12).

The reference alternates between two strategies per round:

* **push** (top-down): expand the sparse frontier's out-edges, claiming
  unvisited targets (first writer wins, mirroring the CAS in the C++ code);
* **pull** (bottom-up): every unvisited vertex scans its *in*-neighbors for
  a frontier member and adopts the first one found as parent.

The switch uses GAP's two heuristics: go bottom-up when the frontier's
outgoing edge count exceeds ``edges_remaining / alpha``, and back top-down
when the frontier shrinks below ``n / beta``.  The loop, its two steps and
the policy are :mod:`repro.la.direction`; this file is GAP's choice of
policy — the scout rule with Beamer's constants.
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..graphs import CSRGraph
from ..la import ALPHA, DirectionOptimizer, direction_optimizing_traversal

__all__ = ["direction_optimizing_bfs"]


def direction_optimizing_bfs(
    graph: CSRGraph,
    source: int,
    alpha: int = ALPHA,
    pull_early_exit: bool = False,
) -> np.ndarray:
    """Full direction-optimizing BFS; returns the GAP parent array.

    ``alpha <= 0`` disables the bottom-up switch entirely (pure push),
    which the threshold-sensitivity sweep uses as its baseline.
    ``pull_early_exit`` opts in to the reduced-work bottom-up scan (it
    changes the *counted* work, so the default stays off for parity with
    the legacy accounting).
    """
    policy = DirectionOptimizer(graph.num_vertices, graph.num_edges, alpha=alpha)
    parents, steps = direction_optimizing_traversal(
        graph.indptr,
        graph.indices,
        graph.in_indptr,
        graph.in_indices,
        source,
        policy,
        pull_early_exit,
    )
    counters.add_steps(steps)
    if policy.switches:
        counters.note("direction_switches", float(policy.switches))
    return parents
