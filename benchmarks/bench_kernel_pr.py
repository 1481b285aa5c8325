"""K-PR — Section V-D: Jacobi vs Gauss-Seidel PageRank.

The paper's PR story: every framework using Gauss-Seidel (Galois, GKC,
NWGraph) converges in fewer iterations than the Jacobi reference; GraphIt
adds cache tiling in Optimized mode.  See EXPERIMENTS.md for how the
vectorized substrate shifts the wall-clock side of this comparison.
"""

import pytest

from repro.frameworks import FRAMEWORK_NAMES, Mode, RunContext, get


@pytest.mark.parametrize("graph_name", ["road", "kron"])
@pytest.mark.parametrize("fw_name", FRAMEWORK_NAMES)
def test_pr(benchmark, kernel_cases, fw_name, graph_name):
    case = kernel_cases[graph_name]
    framework = get(fw_name)
    ctx = RunContext(graph_name=graph_name)
    benchmark.group = f"pr:{graph_name}"
    benchmark.pedantic(
        lambda: framework.pagerank(case.graph, ctx), rounds=5, warmup_rounds=1
    )


def test_pr_graphit_tiled(benchmark, kernel_cases):
    """GraphIt's Optimized cache-tiled schedule on the power-law graph."""
    case = kernel_cases["kron"]
    framework = get("graphit")
    ctx = RunContext(mode=Mode.OPTIMIZED, graph_name="kron")
    benchmark.group = "pr:kron"
    benchmark.pedantic(
        lambda: framework.pagerank(case.graph, ctx), rounds=5, warmup_rounds=1
    )
