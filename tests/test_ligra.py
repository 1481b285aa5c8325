"""Tests for the Ligra-style extension framework."""

import networkx as nx
import numpy as np
import pytest

from repro import counters
from repro.frameworks import FRAMEWORK_NAMES, get
from repro.generators import weighted_version
from repro.la import edge_map


class TestEdgeMap:
    def test_sparse_and_dense_modes_visit_same_edges(self, tiny_graph):
        def collect(store):
            def update(sources, targets, weights):
                store.extend(zip(sources.tolist(), targets.tolist()))
                return np.ones(targets.size, dtype=bool)

            return update

        seen_sparse, seen_dense = [], []
        frontier = np.array([0, 1])
        edge_map(tiny_graph, frontier, collect(seen_sparse), pull=False)
        edge_map(tiny_graph, frontier, collect(seen_dense), pull=True)
        assert sorted(set(seen_sparse)) == sorted(set(seen_dense))

    def test_direction_choice_recorded(self, corpus):
        graph = corpus["kron"]
        hub = int(np.argmax(graph.out_degrees))

        def update(sources, targets, weights):
            return np.zeros(targets.size, dtype=bool)

        # The volume rule pushes a single vertex and pulls every vertex.
        with counters.counting() as work:
            edge_map(graph, np.array([hub]), update)
        assert work.extras == {"edge_map_sparse": 1}
        with counters.counting() as work:
            edge_map(graph, np.arange(graph.num_vertices), update)
        assert work.extras == {"edge_map_dense": 1}

    def test_cond_prunes(self, tiny_graph):
        allowed = np.zeros(7, dtype=bool)
        allowed[2] = True
        seen = []

        def update(sources, targets, weights):
            seen.extend(targets.tolist())
            return np.ones(targets.size, dtype=bool)

        out = edge_map(tiny_graph, np.array([0, 1]), update, to_filter=allowed)
        assert set(seen) == {2}
        assert out.tolist() == [2]


class TestLigraKernels:
    """Full cross-checks against the reference on the whole corpus."""

    def test_bfs(self, corpus_graph, nx_corpus):
        name, graph = corpus_graph
        ligra = get("ligra")
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        parents = ligra.bfs(graph, source)
        depths = nx.single_source_shortest_path_length(nx_corpus[name], source)
        assert set(np.flatnonzero(parents >= 0).tolist()) == set(depths)

    def test_sssp(self, corpus_graph):
        name, graph = corpus_graph
        weighted = weighted_version(graph)
        source = int(np.flatnonzero(weighted.out_degrees > 0)[0])
        reference = get("gap").sssp(weighted, source)
        dist = get("ligra").sssp(weighted, source)
        assert np.array_equal(
            np.nan_to_num(dist, posinf=-1.0), np.nan_to_num(reference, posinf=-1.0)
        )

    def test_cc(self, corpus_graph):
        _, graph = corpus_graph
        reference = get("gap").connected_components(graph)
        labels = get("ligra").connected_components(graph)
        _, ref_ids = np.unique(reference, return_inverse=True)
        _, our_ids = np.unique(labels, return_inverse=True)
        assert np.array_equal(ref_ids, our_ids)

    def test_pr(self, corpus_graph):
        _, graph = corpus_graph
        reference = get("gap").pagerank(graph, tolerance=1e-10, max_iterations=300)
        scores = get("ligra").pagerank(graph, tolerance=1e-10, max_iterations=300)
        assert np.abs(scores - reference).max() < 1e-6

    def test_bc(self, corpus_graph):
        _, graph = corpus_graph
        sources = np.flatnonzero(graph.out_degrees > 0)[:4]
        reference = get("gap").betweenness(graph, sources)
        scores = get("ligra").betweenness(graph, sources)
        assert np.allclose(scores, reference)

    def test_tc(self, corpus_graph):
        _, graph = corpus_graph
        assert get("ligra").triangle_count(graph) == get("gap").triangle_count(graph)


class TestRegistryExtension:
    def test_paper_set_unchanged(self):
        assert "ligra" not in FRAMEWORK_NAMES
        assert len(FRAMEWORK_NAMES) == 6

    def test_extended_set_includes_ligra(self):
        from repro.frameworks import EXTENDED_FRAMEWORK_NAMES

        assert "ligra" in EXTENDED_FRAMEWORK_NAMES

    def test_harness_accepts_ligra(self):
        from repro.core import BenchmarkSpec, GraphCase, run_cell
        from repro.frameworks import Mode

        case = GraphCase.build("kron", scale=8)
        spec = BenchmarkSpec(scale=8, trials={"bfs": 1})
        result = run_cell(get("ligra"), "bfs", case, Mode.BASELINE, spec)
        assert result.framework == "ligra"
        assert result.verified
