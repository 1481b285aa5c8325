"""K-BFS — Section V-A: BFS across frameworks on the road/kron contrast.

The paper's BFS story: direction optimization everywhere, Galois' async
variant on high-diameter Road, per-round overheads punishing the
abstraction-heavy frameworks on Road's hundreds of tiny frontiers.
"""

import pytest

from repro.frameworks import FRAMEWORK_NAMES, Mode, RunContext, get

from .conftest import source_for


@pytest.mark.parametrize("graph_name", ["road", "kron"])
@pytest.mark.parametrize("fw_name", FRAMEWORK_NAMES)
def test_bfs(benchmark, kernel_cases, fw_name, graph_name):
    case = kernel_cases[graph_name]
    framework = get(fw_name)
    source = source_for(case)
    ctx = RunContext(graph_name=graph_name)
    benchmark.group = f"bfs:{graph_name}"
    benchmark.pedantic(lambda: framework.bfs(case.graph, source, ctx), rounds=5, warmup_rounds=1)


@pytest.mark.parametrize("fw_name", ["galois"])
def test_bfs_async_road_optimized(benchmark, kernel_cases, fw_name):
    """Galois' Optimized Road BFS keeps the asynchronous schedule."""
    case = kernel_cases["road"]
    framework = get(fw_name)
    source = source_for(case)
    ctx = RunContext(mode=Mode.OPTIMIZED, graph_name="road")
    benchmark.group = "bfs:road"
    benchmark.pedantic(lambda: framework.bfs(case.graph, source, ctx), rounds=5, warmup_rounds=1)
