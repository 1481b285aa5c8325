"""Quickstart: run all six GAP kernels on one graph with one framework.

Usage::

    python examples/quickstart.py [framework] [graph] [scale]

Defaults: the GAP reference implementations on the Kronecker graph at
2**12 vertices.  Outputs one line per kernel with its result summary,
wall-clock time, and work counters.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import build_graph, weighted_version
from repro import counters
from repro.core.spec import DELTA_BY_GRAPH, SourcePicker
from repro.frameworks import RunContext, get


def main() -> None:
    fw_name = sys.argv[1] if len(sys.argv) > 1 else "gap"
    graph_name = sys.argv[2] if len(sys.argv) > 2 else "kron"
    scale = int(sys.argv[3]) if len(sys.argv) > 3 else 12

    framework = get(fw_name)
    print(f"framework: {framework.attributes.full_name}")
    print(f"graph: {graph_name} at 2**{scale} vertices")

    graph = build_graph(graph_name, scale=scale)
    weighted = weighted_version(graph)
    undirected = graph.to_undirected() if graph.directed else graph
    picker = SourcePicker(graph)
    source = picker.next_source()
    roots = picker.next_sources(4)
    ctx = RunContext(graph_name=graph_name, delta=DELTA_BY_GRAPH.get(graph_name, 16))

    def timed(label: str, fn, describe) -> None:
        with counters.counting() as work:
            start = time.perf_counter()
            output = fn()
            elapsed = time.perf_counter() - start
        print(
            f"  {label:<5} {elapsed * 1e3:8.2f} ms   {describe(output):<40} "
            f"edges={work.edges_examined} rounds={work.rounds} "
            f"iters={work.iterations}"
        )

    timed(
        "bfs",
        lambda: framework.bfs(graph, source, ctx),
        lambda p: f"reached {int((p >= 0).sum())} vertices from {source}",
    )
    timed(
        "sssp",
        lambda: framework.sssp(weighted, source, ctx),
        lambda d: f"max finite distance {np.nanmax(d[np.isfinite(d)]):.0f}",
    )
    timed(
        "pr",
        lambda: framework.pagerank(graph, ctx),
        lambda s: f"top score {s.max():.2e} at vertex {int(s.argmax())}",
    )
    timed(
        "cc",
        lambda: framework.connected_components(graph, ctx),
        lambda c: f"{len(np.unique(c))} weakly connected components",
    )
    timed(
        "bc",
        lambda: framework.betweenness(graph, roots, ctx),
        lambda s: f"most central vertex {int(s.argmax())}",
    )
    timed(
        "tc",
        lambda: framework.triangle_count(undirected, ctx),
        lambda t: f"{t} triangles",
    )


if __name__ == "__main__":
    main()
