"""K-BC — Section V-E: Brandes variants.

The paper's BC story: GAP's saved-successor bitmap beats re-filtering
backward passes (Galois, NWGraph); SuiteSparse's 4-root batched dense
products are its strongest kernel; GraphIt's bitvector frontier pays off on
dense frontiers and hurts on Road.
"""

import pytest

from repro.frameworks import FRAMEWORK_NAMES, RunContext, get

from .conftest import bc_roots


@pytest.mark.parametrize("graph_name", ["road", "kron"])
@pytest.mark.parametrize("fw_name", FRAMEWORK_NAMES)
def test_bc(benchmark, kernel_cases, fw_name, graph_name):
    case = kernel_cases[graph_name]
    framework = get(fw_name)
    roots = bc_roots(case)
    ctx = RunContext(graph_name=graph_name)
    benchmark.group = f"bc:{graph_name}"
    benchmark.pedantic(
        lambda: framework.betweenness(case.graph, roots, ctx),
        rounds=5,
        warmup_rounds=1,
    )
