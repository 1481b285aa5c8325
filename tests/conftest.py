"""Shared fixtures: a small test corpus, oracle helpers, a test watchdog.

Set ``REPRO_TEST_TIMEOUT`` (seconds) to arm a per-test ``SIGALRM``
watchdog: any single test exceeding the budget fails with a clear
message instead of hanging the whole suite.  This is how CI guards the
fault-injection tests (which deliberately create hangs) without any
third-party timeout plugin.
"""

from __future__ import annotations

import os
import signal

import networkx as nx
import numpy as np
import pytest

from repro import counters
from repro.core import BenchmarkSpec, run_suite
from repro.faults import installed
from repro.frameworks import FRAMEWORK_NAMES, KERNELS, get
from repro.generators import build_graph, weighted_version
from repro.graphs import CSRGraph, EdgeList

TEST_SCALE = 9
GRAPHS = ["road", "twitter", "web", "kron", "urand"]

#: The one backend axis of the campaign tests: id -> (``run_suite`` jobs,
#: ``BenchmarkSpec`` fields).  ``serial`` is the inline backend; the
#: process backend appears twice — dispatching per cell and in multi-cell
#: batches (an explicit batch size, so batches form even in the small
#: campaigns tests run) — and ``threads`` is the thread backend.
BACKENDS = {
    "serial": (1, {}),
    "process": (2, {"batch_size": 1}),
    "process-batched": (2, {"batch_size": 3}),
    "threads": (2, {"pool": "threads"}),
}

#: Members whose workers survive a crashing cell (and can be hard-killed).
PROCESS_BACKENDS = ("process", "process-batched")


def run_on(backend, frameworks, graphs, spec_fields=None, faults=(), **kwargs):
    """``run_suite`` on one member of :data:`BACKENDS`, under ``faults``.

    The spec is scale 8 with one trial per kernel, then the backend's own
    fields, then ``spec_fields``; ``faults`` is the whole fault plan for
    the call; everything else goes to ``run_suite``.
    """
    jobs, backend_fields = BACKENDS[backend]
    spec = BenchmarkSpec(
        **{
            "scale": 8,
            "trials": {kernel: 1 for kernel in KERNELS},
            **backend_fields,
            **(spec_fields or {}),
        }
    )
    with installed(*faults):
        return run_suite(frameworks, graphs, spec=spec, jobs=jobs, **kwargs)


_TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "0") or "0")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Per-test wall-clock watchdog, armed by ``$REPRO_TEST_TIMEOUT``.

    Uses ``SIGALRM`` directly (no plugin dependency), so it is a no-op on
    platforms without it and when the variable is unset.  Tests that
    install their own ``SIGALRM`` handler (the trial-deadline tests) are
    unaffected: the watchdog restores the previous handler afterwards and
    only fires if the test is still running at the deadline.
    """
    if _TEST_TIMEOUT <= 0 or not hasattr(signal, "SIGALRM"):
        return (yield)

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded REPRO_TEST_TIMEOUT={_TEST_TIMEOUT:g}s: {item.nodeid}"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, _TEST_TIMEOUT)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(params=list(BACKENDS))
def backend(request):
    """Each execution backend, by its :data:`BACKENDS` id."""
    return request.param


@pytest.fixture(scope="session", params=GRAPHS)
def corpus_graph(request):
    """Each of the five corpus analogs at test scale."""
    return request.param, build_graph(request.param, scale=TEST_SCALE)


@pytest.fixture(scope="session")
def corpus():
    """All five corpus graphs keyed by name."""
    return {name: build_graph(name, scale=TEST_SCALE) for name in GRAPHS}


@pytest.fixture(scope="session")
def weighted_corpus(corpus):
    return {name: weighted_version(graph) for name, graph in corpus.items()}


@pytest.fixture(scope="session", params=FRAMEWORK_NAMES)
def framework(request):
    return get(request.param)


@pytest.fixture
def tiny_graph() -> CSRGraph:
    """A small hand-made directed graph with known structure.

    0 -> 1 -> 2 -> 3, 0 -> 2, 3 -> 0 (a cycle with a chord), plus isolated 4
    and a separate pair 5 <-> 6.
    """
    edges = EdgeList(
        7,
        np.array([0, 1, 2, 0, 3, 5, 6]),
        np.array([1, 2, 3, 2, 0, 6, 5]),
    )
    return CSRGraph.from_edge_list(edges, directed=True)


@pytest.fixture
def triangle_graph() -> CSRGraph:
    """Undirected: a triangle 0-1-2 plus a pendant 3 and one 4-clique 4..7."""
    src = [0, 1, 2, 2, 4, 4, 4, 5, 5, 6]
    dst = [1, 2, 0, 3, 5, 6, 7, 6, 7, 7]
    return CSRGraph.from_arrays(8, np.array(src), np.array(dst), directed=False)


def counted(body, *args, **kwargs):
    """``(output, work)``: what ``body`` returned and the work it reported."""
    with counters.counting() as work:
        output = body(*args, **kwargs)
    return output, work


def to_networkx(graph: CSRGraph, weighted: bool = False) -> nx.Graph:
    """Oracle view of a CSRGraph."""
    out = nx.DiGraph() if graph.directed else nx.Graph()
    out.add_nodes_from(range(graph.num_vertices))
    src, dst = graph.edge_array()
    if weighted and graph.weights is not None:
        out.add_weighted_edges_from(
            zip(src.tolist(), dst.tolist(), graph.weights.tolist())
        )
    else:
        out.add_edges_from(zip(src.tolist(), dst.tolist()))
    return out


def networkx_bc(graph: CSRGraph, sources) -> np.ndarray:
    """Exact unnormalized Brandes scores from a source subset, via networkx."""
    oracle_graph = to_networkx(graph)
    scores = nx.betweenness_centrality_subset(
        oracle_graph,
        sources=[int(s) for s in sources],
        targets=list(oracle_graph.nodes),
        normalized=False,
    )
    return np.array([scores[v] for v in range(graph.num_vertices)])


@pytest.fixture(scope="session")
def nx_corpus(corpus):
    return {name: to_networkx(graph) for name, graph in corpus.items()}
