"""Tests for the Graphalytics extension kernels (CDLP, LCC)."""

import networkx as nx
import numpy as np
import pytest

from repro.extensions import cdlp, lcc
from repro.graphs import CSRGraph

from .conftest import to_networkx


class TestCDLP:
    def test_two_cliques_separate_communities(self):
        # Two K4s joined by one bridge edge: labels must not merge.
        src = [0, 0, 0, 1, 1, 2, 4, 4, 4, 5, 5, 6, 3]
        dst = [1, 2, 3, 2, 3, 3, 5, 6, 7, 6, 7, 7, 4]
        graph = CSRGraph.from_arrays(8, np.array(src), np.array(dst), directed=False)
        labels = cdlp(graph, max_iterations=20)
        left = set(labels[:4].tolist())
        right = set(labels[4:].tolist())
        assert len(left) == 1 and len(right) == 1
        assert left != right

    def test_isolated_vertex_keeps_own_label(self):
        graph = CSRGraph.from_arrays(
            3, np.array([0]), np.array([1]), directed=False
        )
        labels = cdlp(graph)
        assert labels[2] == 2

    def test_converges_and_is_deterministic(self, corpus):
        graph = corpus["kron"]
        a = cdlp(graph, max_iterations=10)
        b = cdlp(graph, max_iterations=10)
        assert np.array_equal(a, b)

    def test_labels_are_vertex_ids(self, corpus):
        labels = cdlp(corpus["twitter"], max_iterations=5)
        assert labels.min() >= 0
        assert labels.max() < corpus["twitter"].num_vertices

    def test_tie_breaks_to_smaller_label(self):
        # Path 0 - 1 - 2: vertex 1 sees labels {0, 2} once each -> picks 0.
        graph = CSRGraph.from_arrays(
            3, np.array([0, 1]), np.array([1, 2]), directed=False
        )
        labels = cdlp(graph, max_iterations=1)
        assert labels[1] == 0

    def test_respects_iteration_budget(self, corpus):
        from repro import counters

        with counters.counting() as work:
            cdlp(corpus["road"], max_iterations=3)
        assert work.iterations <= 3


class TestLCC:
    def test_triangle_is_fully_clustered(self):
        graph = CSRGraph.from_arrays(
            3, np.array([0, 1, 2]), np.array([1, 2, 0]), directed=False
        )
        assert np.allclose(lcc(graph), 1.0)

    def test_star_is_unclustered(self):
        n = 6
        graph = CSRGraph.from_arrays(
            n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n), directed=False
        )
        assert np.allclose(lcc(graph), 0.0)

    def test_degree_below_two_is_zero(self):
        graph = CSRGraph.from_arrays(
            4, np.array([0]), np.array([1]), directed=False
        )
        values = lcc(graph)
        assert values[0] == 0.0 and values[3] == 0.0

    @pytest.mark.parametrize("name", ["kron", "urand", "road"])
    def test_matches_networkx(self, corpus, nx_corpus, name):
        graph = corpus[name]
        oracle_graph = (
            nx_corpus[name].to_undirected() if graph.directed else nx_corpus[name]
        )
        oracle = nx.clustering(oracle_graph)
        ours = lcc(graph)
        for vertex in range(graph.num_vertices):
            assert ours[vertex] == pytest.approx(oracle[vertex]), (name, vertex)

    def test_directed_input_symmetrized(self, corpus):
        graph = corpus["twitter"]
        direct = lcc(graph)
        explicit = lcc(graph.to_undirected())
        assert np.allclose(direct, explicit)
