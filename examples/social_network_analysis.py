"""Scenario: influence and community structure in a social network.

This exercises the paper's Twitter/Kron workload class: scale-free,
low-diameter graphs where degree skew (celebrity vertices) dominates.
The script

1. ranks influencers with PageRank (and shows Jacobi vs Gauss-Seidel
   convergence behaviour, Section V-D);
2. measures local cohesion with triangle counting, showing the degree-
   relabel heuristic's effect on skewed graphs (Section V-F);
3. sizes the audience reachable from a seed user (BFS with direction
   optimization — the classic scale-free traversal).

Usage::

    python examples/social_network_analysis.py [scale]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import build_graph
from repro import counters
from repro.core.spec import SourcePicker
from repro.frameworks import RunContext, get
from repro.gapbs.tc import triangle_count as gap_tc


def main() -> None:
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 13
    graph = build_graph("twitter", scale=scale)
    ctx = RunContext(graph_name="twitter")
    print(
        f"social graph: {graph.num_vertices} users, {graph.num_edges} follow "
        f"links, max followers {int(graph.in_degrees.max())}"
    )

    # 1. Influence ranking, two convergence disciplines.
    print("\ninfluence (PageRank), Jacobi vs Gauss-Seidel:")
    for fw_name, discipline in (("gap", "Jacobi"), ("galois", "Gauss-Seidel")):
        framework = get(fw_name)
        with counters.counting() as work:
            start = time.perf_counter()
            scores = framework.pagerank(graph, ctx)
            elapsed = time.perf_counter() - start
        top = np.argsort(scores)[::-1][:3]
        print(
            f"  {discipline:<13} {elapsed * 1e3:7.2f} ms  "
            f"iterations={work.iterations:<3} top users: "
            + ", ".join(f"{int(u)}" for u in top)
        )

    # 2. Cohesion: triangles, with and without the relabel heuristic.
    undirected = graph.to_undirected()
    print("\ncohesion (triangle counting) on the symmetrized graph:")
    for relabel in (True, False):
        with counters.counting() as work:
            start = time.perf_counter()
            triangles = gap_tc(undirected, force_relabel=relabel)
            elapsed = time.perf_counter() - start
        label = "with degree relabel" if relabel else "without relabel"
        print(
            f"  {label:<22} {elapsed * 1e3:8.2f} ms  "
            f"wedges examined={work.edges_examined:>9}  triangles={triangles}"
        )

    # 3. Reach of a seed user.
    seed = int(SourcePicker(graph).next_source())
    with counters.counting() as work:
        parents = get("gap").bfs(graph, seed, ctx)
    audience = int((parents >= 0).sum()) - 1
    print(
        f"\nreach: user {seed} can reach {audience} users "
        f"({100.0 * audience / graph.num_vertices:.1f}% of the network) in "
        f"{work.rounds} hops of spreading; direction optimization switched "
        f"{int(work.extras.get('direction_switches', 0))} time(s)"
    )


if __name__ == "__main__":
    main()
