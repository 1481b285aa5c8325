"""K-SSSP — Section V-B: delta-stepping across frameworks.

The paper's SSSP story: GAP and GraphIt share the bucket-fusion
optimization and lead; Galois narrows the Road gap with asynchronous
execution; GraphBLAS pays full-vector bucket selection per round.
"""

import pytest

from repro.frameworks import FRAMEWORK_NAMES, RunContext, get

from .conftest import delta_for, source_for


@pytest.mark.parametrize("graph_name", ["road", "kron"])
@pytest.mark.parametrize("fw_name", FRAMEWORK_NAMES)
def test_sssp(benchmark, kernel_cases, fw_name, graph_name):
    case = kernel_cases[graph_name]
    framework = get(fw_name)
    source = source_for(case)
    ctx = RunContext(graph_name=graph_name, delta=delta_for(graph_name))
    benchmark.group = f"sssp:{graph_name}"
    benchmark.pedantic(
        lambda: framework.sssp(case.weighted, source, ctx), rounds=5, warmup_rounds=1
    )
