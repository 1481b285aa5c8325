"""K-TC — Section V-F: triangle counting.

The paper's TC story: GKC's batched (SIMD-analog) intersection with
heuristic relabeling outperforms the reference on every graph; the masked
``C<L> = L*U'`` product is SuiteSparse's formulation; relabeling is timed
(except Galois' Optimized runs, exercised via the prepare hook in the
Table IV/V sweep).
"""

import pytest

from repro.frameworks import FRAMEWORK_NAMES, RunContext, get


@pytest.mark.parametrize("graph_name", ["road", "kron"])
@pytest.mark.parametrize("fw_name", FRAMEWORK_NAMES)
def test_tc(benchmark, kernel_cases, fw_name, graph_name):
    case = kernel_cases[graph_name]
    framework = get(fw_name)
    ctx = RunContext(graph_name=graph_name)
    benchmark.group = f"tc:{graph_name}"
    benchmark.pedantic(
        lambda: framework.triangle_count(case.undirected, ctx),
        rounds=5,
        warmup_rounds=1,
    )
