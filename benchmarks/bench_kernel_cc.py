"""K-CC — Section V-C: the most algorithm-diverse kernel.

Afforest (GAP/Galois/NWGraph) vs FastSV (SuiteSparse) vs label propagation
(GraphIt, the Road disaster) vs Shiloach–Vishkin (GKC).
"""

import pytest

from repro.frameworks import FRAMEWORK_NAMES, Mode, RunContext, get


@pytest.mark.parametrize("graph_name", ["road", "kron"])
@pytest.mark.parametrize("fw_name", FRAMEWORK_NAMES)
def test_cc(benchmark, kernel_cases, fw_name, graph_name):
    case = kernel_cases[graph_name]
    framework = get(fw_name)
    ctx = RunContext(graph_name=graph_name)
    benchmark.group = f"cc:{graph_name}"
    benchmark.pedantic(
        lambda: framework.connected_components(case.graph, ctx),
        rounds=5,
        warmup_rounds=1,
    )


def test_cc_graphit_road_short_circuit(benchmark, kernel_cases):
    """GraphIt's Optimized Road schedule: label prop + short-circuiting."""
    case = kernel_cases["road"]
    framework = get("graphit")
    ctx = RunContext(mode=Mode.OPTIMIZED, graph_name="road")
    benchmark.group = "cc:road"
    benchmark.pedantic(
        lambda: framework.connected_components(case.graph, ctx),
        rounds=5,
        warmup_rounds=1,
    )
