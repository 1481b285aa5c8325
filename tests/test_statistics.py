"""Tests for the extended topology statistics."""

import networkx as nx
import numpy as np
import pytest

from repro.graphs import (
    CSRGraph,
    assortativity,
    global_clustering,
    reciprocity,
    summarize,
)

from .conftest import to_networkx


class TestReciprocity:
    def test_undirected_is_one(self, corpus):
        assert reciprocity(corpus["urand"]) == 1.0

    def test_fully_reciprocal(self):
        graph = CSRGraph.from_arrays(
            2, np.array([0, 1]), np.array([1, 0]), directed=True
        )
        assert reciprocity(graph) == 1.0

    def test_one_way_is_zero(self):
        graph = CSRGraph.from_arrays(2, np.array([0]), np.array([1]), directed=True)
        assert reciprocity(graph) == 0.0

    def test_road_more_reciprocal_than_twitter(self, corpus):
        """Two-way streets vs asymmetric follows — a Table I class contrast."""
        assert reciprocity(corpus["road"]) > 2 * reciprocity(corpus["twitter"])


class TestAssortativity:
    def test_range(self, corpus_graph):
        _, graph = corpus_graph
        assert -1.0 <= assortativity(graph) <= 1.0

    def test_synthetic_power_law_disassortative(self, corpus):
        """Kronecker graphs are strongly disassortative (hub-leaf mixing)."""
        assert assortativity(corpus["kron"]) < 0.0

    def test_degenerate_graph(self):
        graph = CSRGraph.from_arrays(
            3, np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        )
        assert assortativity(graph) == 0.0


class TestGlobalClustering:
    def test_triangle(self):
        graph = CSRGraph.from_arrays(
            3, np.array([0, 1, 2]), np.array([1, 2, 0]), directed=False
        )
        assert global_clustering(graph) == pytest.approx(1.0)

    def test_star(self):
        graph = CSRGraph.from_arrays(
            5, np.zeros(4, dtype=np.int64), np.arange(1, 5), directed=False
        )
        assert global_clustering(graph) == 0.0

    def test_matches_networkx_transitivity(self, corpus, nx_corpus):
        graph = corpus["kron"]
        oracle = nx.transitivity(nx_corpus["kron"])
        assert global_clustering(graph) == pytest.approx(oracle)

    def test_web_more_clustered_than_urand(self, corpus):
        """Locality gives the web analog real clustering; ER has ~none."""
        assert global_clustering(corpus["web"]) > 3 * global_clustering(
            corpus["urand"]
        )


class TestSummarize:
    def test_row_fields(self, corpus):
        row = summarize(corpus["road"], "road").as_row()
        assert row["Name"] == "road"
        assert "p50/p90/p99 degree" in row

    def test_empty_graph(self):
        graph = CSRGraph.from_arrays(
            2, np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        )
        summary = summarize(graph)
        assert summary.max_out_degree == 0
        assert summary.global_clustering == 0.0
