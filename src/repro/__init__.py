"""Reproduction of "Evaluation of Graph Analytics Frameworks Using the GAP
Benchmark Suite" (Azad et al., IISWC 2020).

The package implements, in pure Python/NumPy:

* the GAP benchmark corpus (five topologically diverse graphs) and its six
  kernels (BFS, SSSP, PR, CC, BC, TC);
* six frameworks' execution models — the GAP reference (`repro.gapbs`),
  SuiteSparse:GraphBLAS + LAGraph (`repro.semiring` + `repro.lagraph`),
  Galois (`repro.worklist` + `repro.galois`), NWGraph (`repro.nwgraph`),
  GraphIt (`repro.graphitc` + `repro.graphit`), and the
  Graph Kernel Collection (`repro.gkc`);
* the benchmarking harness that regenerates the paper's Tables I–V
  (`repro.core`);
* a results archive and statistical regression gate (`repro.store`) that
  keeps every campaign (per-trial times, spec, telemetry, environment
  fingerprint) and compares runs with bootstrap confidence intervals.

Quickstart::

    from repro import build_graph, frameworks
    g = build_graph("kron", scale=10)
    result = frameworks.get("gap").bfs(g, source=0)
"""

from . import frameworks
from .errors import ReproError
from .generators import build_corpus, build_graph, weighted_version
from .graphs import CSRGraph, EdgeList

__version__ = "1.0.0"

__all__ = [
    "CSRGraph",
    "EdgeList",
    "ReproError",
    "build_corpus",
    "build_graph",
    "frameworks",
    "weighted_version",
    "__version__",
]
