"""Galois' run-time topology heuristics.

Under Baseline rules no per-graph hand tuning is allowed, so Galois picks
between its bulk-synchronous and asynchronous implementations with a vertex
sampling scheme (the paper: "similar to that in GAP for TC") that tests for
a power-law degree distribution.  Power-law is assumed to imply low
diameter (favoring bulk-synchronous) and uniform degrees to imply high
diameter (favoring asynchronous) — which, as the paper notes in a footnote,
misfires on Urand: uniform degrees but low diameter, making the Baseline
async choice a measurable mistake there.
"""

from __future__ import annotations

from ..graphs import CSRGraph, degree_skewed

__all__ = ["assume_high_diameter"]


def assume_high_diameter(graph: CSRGraph, seed: int = 0) -> bool:
    """Baseline assumption: not power-law => high diameter (see docstring)."""
    return not degree_skewed(graph, seed)
