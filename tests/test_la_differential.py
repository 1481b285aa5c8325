"""Differential matrix: the substrate must be observationally identical to its oracle.

The port moved every framework's hot loops onto :mod:`repro.la`; the
verbatim pre-port formulations live on in ``tests/reference/la_oracle.py``.
Running a kernel inside ``oracle_engine()`` therefore reproduces the
pre-port implementation *exactly* — the oracle.  This suite runs every
framework x kernel x graph cell on both and requires:

* identical outputs — exact for BFS/SSSP/CC/TC (integer or first-writer
  semantics), tight float tolerance for PR (SciPy matvec vs the prefix-sum
  reference round differently) and BC (which consumes PR-free float sums
  in a fixed edge order, but shares gather outputs);
* identical work counters — the substrate must not change the repo's
  machine-independent cost model (``edges_examined``, rounds, iterations).

The matrix runs at the tier-2 grid (scale-7 road/kron/urand).
"""

import numpy as np
import pytest

from repro import counters
from repro.core import GraphCase, SourcePicker
from repro.frameworks import KERNELS, RunContext, get
from repro.frameworks.registry import FRAMEWORK_NAMES
from tests.reference.la_oracle import oracle_engine

DIFF_SCALE = 7
DIFF_GRAPHS = ("road", "kron", "urand")
PR_RTOL = 1e-9


@pytest.fixture(scope="module")
def cases():
    return {name: GraphCase.build(name, scale=DIFF_SCALE) for name in DIFF_GRAPHS}


@pytest.fixture(scope="module")
def sources(cases):
    picked = {}
    for name, case in cases.items():
        picker = SourcePicker(case.graph, seed=0)
        picked[name] = (picker.next_source(), picker.next_sources(4))
    return picked


def _run(framework_name, kernel, case, source, roots, graph_name):
    framework = get(framework_name)
    ctx = RunContext(graph_name=graph_name)
    with counters.counting() as work:
        if kernel == "bfs":
            out = framework.bfs(case.graph, source, ctx)
        elif kernel == "sssp":
            out = framework.sssp(case.weighted, source, ctx)
        elif kernel == "cc":
            out = framework.connected_components(case.graph, ctx)
        elif kernel == "pr":
            out = framework.pagerank(case.graph, ctx)
        elif kernel == "bc":
            out = framework.betweenness(case.graph, roots, ctx)
        else:
            out = framework.triangle_count(case.undirected, ctx)
    return out, work.edges_examined, work.rounds, work.iterations


def _run_all(cases, sources):
    """(output, counters) of every framework x kernel x graph cell."""
    return {
        (framework_name, kernel, graph_name): _run(
            framework_name, kernel, case, *sources[graph_name], graph_name
        )
        for graph_name, case in cases.items()
        for framework_name in FRAMEWORK_NAMES
        for kernel in KERNELS
    }


@pytest.fixture(scope="module")
def matrix(cases, sources):
    """Every cell on the substrate and on the oracle, computed once."""
    substrate = _run_all(cases, sources)
    with oracle_engine():
        oracle = _run_all(cases, sources)
    return {key: {"substrate": substrate[key], "oracle": oracle[key]} for key in substrate}


@pytest.mark.tier2
@pytest.mark.parametrize("graph_name", DIFF_GRAPHS)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("framework_name", FRAMEWORK_NAMES)
def test_substrate_output_matches_oracle(matrix, framework_name, kernel, graph_name):
    cell = matrix[(framework_name, kernel, graph_name)]
    out_sub, *_ = cell["substrate"]
    out_ref, *_ = cell["oracle"]
    if kernel in ("pr", "bc"):
        np.testing.assert_allclose(out_sub, out_ref, rtol=PR_RTOL, atol=1e-12)
    elif kernel == "tc":
        assert int(out_sub) == int(out_ref)
    else:
        # First-writer claims and min-relaxations are engine-exact: same
        # parents, same distances, same labels — not merely equivalent.
        np.testing.assert_array_equal(np.asarray(out_sub), np.asarray(out_ref))


@pytest.mark.tier2
@pytest.mark.parametrize("graph_name", DIFF_GRAPHS)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("framework_name", FRAMEWORK_NAMES)
def test_substrate_preserves_work_counters(matrix, framework_name, kernel, graph_name):
    """The cost model is part of the contract: same edges, rounds, sweeps."""
    cell = matrix[(framework_name, kernel, graph_name)]
    _, edges_sub, rounds_sub, iters_sub = cell["substrate"]
    _, edges_ref, rounds_ref, iters_ref = cell["oracle"]
    assert edges_sub == edges_ref
    assert rounds_sub == rounds_ref
    assert iters_sub == iters_ref
