"""Differential test harness: every framework pair must agree on every kernel.

The paper's cross-framework tables are only meaningful if the frameworks
solve the *same problem*; a silently divergent implementation would turn a
performance comparison into nonsense.  This harness runs every registered
framework on every GAP kernel over multiple graph topologies, checks each
output against the shared oracle in :mod:`repro.core.verify`, and then
asserts pairwise agreement on a canonical form of the output:

* BFS parent arrays are canonicalized to depth arrays (different valid
  parent trees are fine, different depths are not);
* CC labelings are canonicalized to the minimum vertex id per component;
* SSSP distances must match exactly (integer weights — every correct
  algorithm returns identical float64 distances);
* PR scores must agree to well within the convergence tolerance;
* BC scores must agree to relative 1e-6; TC counts must be equal.

The full matrix is marked ``tier2`` — deselect with ``-m 'not tier2'``.
"""

import itertools

import numpy as np
import pytest

from repro.core import GraphCase, SourcePicker, verify
from repro.frameworks import KERNELS, RunContext, get
from repro.frameworks.registry import FRAMEWORK_NAMES

DIFF_SCALE = 7
DIFF_GRAPHS = ("road", "kron", "urand")
PR_TOLERANCE = 1e-7
PAIRS = list(itertools.combinations(FRAMEWORK_NAMES, 2))


def bfs_depths_from_parents(parents: np.ndarray, source: int) -> np.ndarray:
    """Canonical BFS output: depth per vertex, derived only from parents."""
    n = parents.size
    depths = np.full(n, -1, dtype=np.int64)
    depths[source] = 0
    for _ in range(n):
        known = depths >= 0
        frontier = (~known) & (parents >= 0) & known[np.where(parents >= 0, parents, 0)]
        if not frontier.any():
            break
        depths[frontier] = depths[parents[frontier]] + 1
    return depths


def canonical_cc_labels(labels: np.ndarray) -> np.ndarray:
    """Canonical CC output: each vertex labeled by its component's min id."""
    canonical = np.full(labels.size, -1, dtype=np.int64)
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
    for group in np.split(order, boundaries):
        canonical[group] = group.min()
    return canonical


@pytest.fixture(scope="module")
def cases():
    return {name: GraphCase.build(name, scale=DIFF_SCALE) for name in DIFF_GRAPHS}


@pytest.fixture(scope="module")
def sources(cases):
    """One BFS/SSSP source and one BC root batch per graph, shared by all."""
    picked = {}
    for name, case in cases.items():
        picker = SourcePicker(case.graph, seed=0)
        picked[name] = (picker.next_source(), picker.next_sources(4))
    return picked


@pytest.fixture(scope="module")
def outputs(cases, sources):
    """Every framework's raw output for every (kernel, graph), computed once."""
    computed = {}
    for graph_name, case in cases.items():
        source, roots = sources[graph_name]
        for framework_name in FRAMEWORK_NAMES:
            framework = get(framework_name)
            ctx = RunContext(graph_name=graph_name)
            computed[(framework_name, "bfs", graph_name)] = framework.bfs(
                case.graph, source, ctx
            )
            computed[(framework_name, "sssp", graph_name)] = framework.sssp(
                case.weighted, source, ctx
            )
            computed[(framework_name, "cc", graph_name)] = (
                framework.connected_components(case.graph, ctx)
            )
            computed[(framework_name, "pr", graph_name)] = framework.pagerank(
                case.graph, ctx, tolerance=PR_TOLERANCE, max_iterations=500
            )
            computed[(framework_name, "bc", graph_name)] = framework.betweenness(
                case.graph, roots, ctx
            )
            computed[(framework_name, "tc", graph_name)] = framework.triangle_count(
                case.undirected, ctx
            )
    return computed


@pytest.mark.tier2
@pytest.mark.parametrize("graph_name", DIFF_GRAPHS)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("framework_name", FRAMEWORK_NAMES)
def test_output_verifies_against_oracle(
    outputs, cases, sources, framework_name, kernel, graph_name
):
    """Each framework's output passes the shared oracle for that kernel."""
    source, roots = sources[graph_name]
    verify.verify_output(
        kernel,
        cases[graph_name],
        outputs[(framework_name, kernel, graph_name)],
        source,
        roots,
        tolerance=PR_TOLERANCE,
    )


@pytest.mark.tier2
@pytest.mark.parametrize("graph_name", DIFF_GRAPHS)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "name_a,name_b", PAIRS, ids=["-".join(pair) for pair in PAIRS]
)
def test_framework_pair_agrees(outputs, sources, name_a, name_b, kernel, graph_name):
    """Canonicalized outputs of the two frameworks are interchangeable."""
    out_a = outputs[(name_a, kernel, graph_name)]
    out_b = outputs[(name_b, kernel, graph_name)]
    if kernel == "bfs":
        source, _ = sources[graph_name]
        depths_a = bfs_depths_from_parents(np.asarray(out_a), source)
        depths_b = bfs_depths_from_parents(np.asarray(out_b), source)
        np.testing.assert_array_equal(depths_a, depths_b)
    elif kernel == "sssp":
        np.testing.assert_allclose(out_a, out_b, rtol=0, atol=1e-9)
    elif kernel == "cc":
        np.testing.assert_array_equal(
            canonical_cc_labels(np.asarray(out_a)),
            canonical_cc_labels(np.asarray(out_b)),
        )
    elif kernel == "pr":
        # Converged to L1 residual < PR_TOLERANCE; solutions can differ by
        # O(tolerance / (1 - damping)) in L1, far below this bound.
        assert float(np.abs(np.asarray(out_a) - np.asarray(out_b)).sum()) < 1e-4
    elif kernel == "bc":
        magnitude = max(1.0, float(np.abs(out_a).max()))
        assert float(np.abs(np.asarray(out_a) - np.asarray(out_b)).max()) <= (
            1e-6 * magnitude
        )
    elif kernel == "tc":
        assert int(out_a) == int(out_b)


def test_differential_matrix_is_complete():
    """The matrix covers all framework pairs, all six kernels, >=2 graphs."""
    assert len(PAIRS) == len(FRAMEWORK_NAMES) * (len(FRAMEWORK_NAMES) - 1) // 2
    assert set(KERNELS) == {"bfs", "sssp", "cc", "pr", "bc", "tc"}
    assert len(DIFF_GRAPHS) >= 2
