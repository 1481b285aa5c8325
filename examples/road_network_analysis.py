"""Scenario: route planning and bottleneck analysis on a road network.

This exercises the workload class the paper's Road graph represents:
high-diameter, bounded-degree planar topology where per-round overheads
dominate.  The script

1. computes service areas (SSSP travel times) from a handful of depots;
2. finds structurally critical junctions with betweenness centrality;
3. checks network connectivity (is every address reachable?);
4. compares a bulk-synchronous and an asynchronous framework on the same
   queries — the paper's headline Road effect.

Usage::

    python examples/road_network_analysis.py [scale]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import build_graph, weighted_version
from repro.core import counters
from repro.core.spec import DELTA_BY_GRAPH, SourcePicker
from repro.frameworks import RunContext, get


def main() -> None:
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 13
    graph = build_graph("road", scale=scale)
    network = weighted_version(graph)  # weights = travel times
    print(f"road network: {graph.num_vertices} junctions, {graph.num_edges} road segments")

    ctx = RunContext(graph_name="road", delta=DELTA_BY_GRAPH["road"])
    picker = SourcePicker(network)
    depots = picker.next_sources(3)
    gap = get("gap")

    # 1. Service areas: travel time from each depot.
    for depot in depots:
        start = time.perf_counter()
        times = gap.sssp(network, int(depot), ctx)
        elapsed = time.perf_counter() - start
        reachable = np.isfinite(times)
        print(
            f"  depot {int(depot):>6}: serves {int(reachable.sum())} junctions, "
            f"median travel time {np.median(times[reachable]):.0f}, "
            f"computed in {elapsed * 1e3:.1f} ms"
        )

    # 2. Critical junctions: betweenness from sampled roots.
    roots = picker.next_sources(4)
    centrality = gap.betweenness(graph, roots, ctx)
    top = np.argsort(centrality)[::-1][:5]
    print("  most critical junctions (approx. betweenness):",
          ", ".join(f"{int(v)} ({centrality[v]:.0f})" for v in top))

    # 3. Connectivity: stranded junctions.
    components = gap.connected_components(graph, ctx)
    labels, sizes = np.unique(components, return_counts=True)
    stranded = graph.num_vertices - int(sizes.max())
    print(f"  connectivity: {labels.size} components; {stranded} junctions "
          f"outside the main network")

    # 4. Framework contrast on the high-diameter topology.
    print("\nscheduling comparison on this high-diameter network (BFS):")
    source = int(depots[0])
    for fw_name in ("gap", "galois", "graphit", "suitesparse"):
        framework = get(fw_name)
        with counters.counting() as work:
            start = time.perf_counter()
            framework.bfs(graph, source, ctx)
            elapsed = time.perf_counter() - start
        style = "async worklist" if (fw_name == "galois") else "level-synchronous"
        print(
            f"  {fw_name:<12} {elapsed * 1e3:7.2f} ms  rounds={work.rounds:<5} "
            f"edges={work.edges_examined:<8} ({style})"
        )
    print("\nNote the round counts: Road's diameter forces hundreds of tiny "
          "frontiers, the effect Section V-A of the paper attributes Road's "
          "difficulty to.")

    # Frontier trace: the workload-characterization view of the same fact.
    from repro.core.workload import sparkline, trace_bfs

    trace = trace_bfs(graph, source)
    print(
        f"\nfrontier trace from junction {source}: {trace.num_rounds} rounds, "
        f"peak frontier {trace.peak_frontier} "
        f"({trace.pull_rounds} ran bottom-up)"
    )
    print("  " + sparkline(trace.frontier_sizes()))


if __name__ == "__main__":
    main()
