"""Cross-framework correctness: CC, PR, BC, TC on every corpus graph."""

import networkx as nx
import numpy as np
import pytest

from repro.frameworks import Mode, RunContext, get
from repro.graphs import CSRGraph

from .conftest import networkx_bc


class TestCC:
    def test_partition_matches_networkx(self, framework, corpus_graph, nx_corpus):
        name, graph = corpus_graph
        oracle = nx_corpus[name].to_undirected() if graph.directed else nx_corpus[name]
        labels = framework.connected_components(graph)
        components = list(nx.connected_components(oracle))
        assert len(set(labels.tolist())) == len(components), (framework.name, name)
        for component in components:
            ids = labels[list(component)]
            assert (ids == ids[0]).all(), (framework.name, name)

    def test_isolated_vertices_get_own_label(self, framework, tiny_graph):
        labels = framework.connected_components(tiny_graph)
        assert labels[4] not in np.delete(labels, 4)

    def test_optimized_mode_same_partition(self, framework, corpus_graph):
        name, graph = corpus_graph
        base = framework.connected_components(graph)
        opt = framework.connected_components(
            graph, RunContext(mode=Mode.OPTIMIZED, graph_name=name)
        )
        # Same partition (labels may differ).
        _, base_ids = np.unique(base, return_inverse=True)
        _, opt_ids = np.unique(opt, return_inverse=True)
        remap = {}
        for a, b in zip(base_ids.tolist(), opt_ids.tolist()):
            assert remap.setdefault(a, b) == b, (framework.name, name)


class TestPR:
    def test_close_to_networkx_pagerank(self, framework, corpus_graph, nx_corpus):
        name, graph = corpus_graph
        scores = framework.pagerank(graph, tolerance=1e-10, max_iterations=200)
        oracle = nx.pagerank(nx_corpus[name], alpha=0.85, tol=1e-12, max_iter=500)
        # networkx redistributes dangling mass; our kernels (like GAP) drop
        # it, so compare after renormalizing both to sum 1.
        ours = scores / scores.sum()
        theirs = np.array([oracle[v] for v in range(graph.num_vertices)])
        theirs /= theirs.sum()
        assert np.abs(ours - theirs).max() < 5e-3, (framework.name, name)

    def test_all_frameworks_agree(self, corpus_graph):
        name, graph = corpus_graph
        reference = get("gap").pagerank(graph, tolerance=1e-10, max_iterations=300)
        for fw_name in ("suitesparse", "galois", "nwgraph", "graphit", "gkc"):
            scores = get(fw_name).pagerank(graph, tolerance=1e-10, max_iterations=300)
            assert np.abs(scores - reference).max() < 1e-6, (fw_name, name)

    def test_scores_positive(self, framework, corpus):
        scores = framework.pagerank(corpus["kron"])
        assert (scores > 0).all()

    def test_tolerance_controls_convergence(self, framework, corpus):
        from repro.core import counters

        with counters.counting() as loose:
            framework.pagerank(corpus["twitter"], tolerance=1e-2)
        with counters.counting() as tight:
            framework.pagerank(corpus["twitter"], tolerance=1e-8)
        assert tight.iterations > loose.iterations


class TestBC:
    def test_matches_networkx_subset(self, framework, tiny_graph):
        sources = np.array([0, 5])
        ours = framework.betweenness(tiny_graph, sources)
        assert np.allclose(ours, networkx_bc(tiny_graph, sources)), framework.name

    def test_all_frameworks_agree(self, corpus_graph):
        name, graph = corpus_graph
        rng = np.random.default_rng(2)
        candidates = np.flatnonzero(graph.out_degrees > 0)
        sources = rng.choice(candidates, size=4, replace=False)
        reference = get("gap").betweenness(graph, sources)
        for fw_name in ("suitesparse", "galois", "nwgraph", "graphit", "gkc"):
            scores = get(fw_name).betweenness(graph, sources)
            assert np.allclose(scores, reference), (fw_name, name)

    def test_source_score_zero_on_dag_root(self, framework, tiny_graph):
        scores = framework.betweenness(tiny_graph, np.array([5]))
        # From 5: only path 5 -> 6; no intermediate vertices.
        assert np.allclose(scores, 0.0)


class TestTC:
    def test_known_counts(self, framework, triangle_graph):
        # Triangle 0-1-2 plus K4 on 4..7 (4 triangles).
        assert framework.triangle_count(triangle_graph) == 5

    def test_matches_networkx(self, framework, corpus_graph, nx_corpus):
        name, graph = corpus_graph
        oracle = nx_corpus[name].to_undirected() if graph.directed else nx_corpus[name]
        expected = sum(nx.triangles(oracle).values()) // 3
        assert framework.triangle_count(graph) == expected, (framework.name, name)

    def test_triangle_free(self, framework):
        # A star has no triangles.
        n = 10
        star = CSRGraph.from_arrays(
            n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n), directed=False
        )
        assert framework.triangle_count(star) == 0

    def test_complete_graph(self, framework):
        n = 8
        src, dst = np.meshgrid(np.arange(n), np.arange(n))
        mask = src != dst
        g = CSRGraph.from_arrays(n, src[mask], dst[mask], directed=False)
        assert framework.triangle_count(g) == n * (n - 1) * (n - 2) // 6

    def test_optimized_mode_same_count(self, framework, corpus_graph):
        name, graph = corpus_graph
        ctx = RunContext(mode=Mode.OPTIMIZED, graph_name=name)
        prepared = framework.prepare("tc", graph.to_undirected() if graph.directed else graph, ctx)
        assert framework.triangle_count(prepared, ctx) == framework.triangle_count(graph)
