"""Tests for repro.graphs.transforms."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graphs import (
    CSRGraph,
    degree_order_permutation,
    degree_skewed,
    forward_adjacency,
    induced_subgraph,
    lower_triangle_counts,
    permute,
    relabel_by_degree,
)


class TestPermute:
    def test_identity(self, tiny_graph):
        same = permute(tiny_graph, np.arange(7))
        assert same == tiny_graph

    def test_edge_follows_permutation(self, tiny_graph):
        perm = np.array([1, 0, 2, 3, 4, 5, 6])
        g = permute(tiny_graph, perm)
        assert g.has_edge(1, 0)  # was 0 -> 1

    def test_weights_travel(self):
        g = CSRGraph.from_arrays(
            3, np.array([0, 1]), np.array([1, 2]), np.array([5.0, 7.0])
        )
        p = permute(g, np.array([2, 1, 0]))
        # edge 0->1 (w=5) becomes 2->1; edge 1->2 (w=7) becomes 1->0
        assert p.neighbor_weights(2).tolist() == [5.0]
        assert p.neighbor_weights(1).tolist() == [7.0]

    def test_degree_multiset_preserved(self, corpus_graph):
        _, graph = corpus_graph
        perm = degree_order_permutation(graph)
        relabeled = permute(graph, perm)
        assert sorted(graph.out_degrees.tolist()) == sorted(
            relabeled.out_degrees.tolist()
        )


def _csr_arrays(graph):
    return {
        name: getattr(graph, name)
        for name in (
            "indptr", "indices", "weights", "in_indptr", "in_indices", "in_weights"
        )
    }


class TestPermuteIsTheEdgeListRelabel:
    """``permute`` goes CSR -> CSR; the edge-list round trip is its oracle."""

    @pytest.fixture(params=["directed", "weighted", "undirected"])
    def view(self, request, corpus, weighted_corpus):
        return {
            "directed": corpus["twitter"],
            "weighted": weighted_corpus["web"],
            "undirected": corpus["kron"],
        }[request.param]

    def test_arrays_equal_the_round_trip(self, view):
        perm = np.random.default_rng(3).permutation(view.num_vertices)
        expected = CSRGraph.from_edge_list(
            view.to_edge_list().relabeled(perm), directed=view.directed
        )
        got = permute(view, perm)
        assert got.directed == expected.directed
        assert got.num_vertices == expected.num_vertices
        for name, array in _csr_arrays(expected).items():
            mine = getattr(got, name)
            if array is None:
                assert mine is None, name
            else:
                assert mine.dtype == array.dtype, name
                np.testing.assert_array_equal(mine, array, err_msg=name)
        # An undirected graph's in-adjacency aliases its out-adjacency.
        assert (got.in_indices is got.indices) == (not view.directed)

    def test_rejects_a_non_permutation(self, tiny_graph):
        with pytest.raises(GraphFormatError, match="not a permutation"):
            permute(tiny_graph, np.array([0, 0, 2, 3, 4, 5, 6]))

    def test_rejects_a_wrong_length(self, tiny_graph):
        with pytest.raises(GraphFormatError, match="permutation length"):
            permute(tiny_graph, np.arange(6))


class TestSharedTcPreprocessing:
    def test_forward_adjacency_keeps_each_edge_once(self, triangle_graph):
        indptr, indices = forward_adjacency(triangle_graph)
        assert indices.size == triangle_graph.num_undirected_edges
        owners = np.repeat(np.arange(triangle_graph.num_vertices), np.diff(indptr))
        assert np.all(indices > owners)
        keys = owners * triangle_graph.num_vertices + indices
        assert np.all(np.diff(keys) > 0)  # row-major sorted, no sort needed

    def test_degree_skewed_is_seeded(self, corpus):
        assert degree_skewed(corpus["kron"], seed=5) == degree_skewed(
            corpus["kron"], seed=5
        )
        assert degree_skewed(corpus["kron"]) and not degree_skewed(corpus["urand"])


class TestDegreeOrder:
    def test_ascending_order(self, corpus_graph):
        _, graph = corpus_graph
        relabeled, _ = relabel_by_degree(graph, ascending=True)
        degrees = relabeled.out_degrees
        # The *original* degree of the vertex placed at position i must be
        # non-decreasing; the relabeled graph's own degrees are identical to
        # the originals carried along.
        perm = degree_order_permutation(graph, ascending=True)
        original_sorted = graph.out_degrees[np.argsort(perm)]
        assert (np.diff(original_sorted) >= 0).all()
        del degrees

    def test_descending_reverses(self, corpus_graph):
        _, graph = corpus_graph
        asc = degree_order_permutation(graph, ascending=True)
        desc = degree_order_permutation(graph, ascending=False)
        # The highest-degree vertex gets the largest id ascending, smallest
        # descending.
        top = int(np.argmax(graph.out_degrees))
        assert asc[top] > desc[top] or graph.num_vertices == 1

    def test_is_permutation(self, corpus_graph):
        _, graph = corpus_graph
        perm = degree_order_permutation(graph)
        assert np.array_equal(np.sort(perm), np.arange(graph.num_vertices))


class TestInducedSubgraph:
    def test_simple(self, tiny_graph):
        sub, mapping = induced_subgraph(tiny_graph, np.array([0, 1, 2]))
        assert sub.num_vertices == 3
        assert mapping.tolist() == [0, 1, 2]
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2) and sub.has_edge(0, 2)

    def test_drops_external_edges(self, tiny_graph):
        sub, _ = induced_subgraph(tiny_graph, np.array([0, 3]))
        # only 3 -> 0 survives
        assert sub.num_edges == 1
        assert sub.has_edge(1, 0)

    def test_out_of_range_rejected(self, tiny_graph):
        with pytest.raises(GraphFormatError):
            induced_subgraph(tiny_graph, np.array([99]))

    def test_undirected_stays_symmetric(self, triangle_graph):
        sub, _ = induced_subgraph(triangle_graph, np.array([0, 1, 2]))
        src, dst = sub.edge_array()
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert all((b, a) in pairs for a, b in pairs)


class TestLowerTriangle:
    def test_counts(self, triangle_graph):
        counts = lower_triangle_counts(triangle_graph)
        # vertex 0 has no smaller neighbor; vertex 2 has 0 and 1.
        assert counts[0] == 0
        assert counts[2] == 2

    def test_total_is_half_of_edges(self, triangle_graph):
        counts = lower_triangle_counts(triangle_graph)
        assert counts.sum() == triangle_graph.num_undirected_edges
