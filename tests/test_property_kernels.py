"""Extra property-based tests: invariants over random graphs and inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions import cdlp, lcc
from repro.frameworks import get
from repro.graphs import CSRGraph, EdgeList
from repro.la import edge_map


def undirected_graphs(max_n=24, max_m=80):
    """Arbitrary small undirected graphs."""

    def build(args):
        n, pairs = args
        src = np.array([a % n for a, _ in pairs], dtype=np.int64)
        dst = np.array([b % n for _, b in pairs], dtype=np.int64)
        return CSRGraph.from_edge_list(EdgeList(n, src, dst), directed=False)

    return st.tuples(
        st.integers(2, max_n),
        st.lists(st.tuples(st.integers(0, 999), st.integers(0, 999)), max_size=max_m),
    ).map(build)


class TestExtensionInvariants:
    @given(undirected_graphs())
    @settings(max_examples=25, deadline=None)
    def test_lcc_bounded(self, graph):
        values = lcc(graph)
        assert (values >= 0.0).all() and (values <= 1.0 + 1e-12).all()

    @given(undirected_graphs())
    @settings(max_examples=25, deadline=None)
    def test_lcc_zero_without_triangles_nearby(self, graph):
        values = lcc(graph)
        degrees = graph.out_degrees
        assert (values[degrees < 2] == 0.0).all()

    @given(undirected_graphs())
    @settings(max_examples=25, deadline=None)
    def test_cdlp_labels_within_components(self, graph):
        """A CDLP community can never span two weak components."""
        communities = cdlp(graph, max_iterations=5)
        components = get("gap").connected_components(graph)
        by_label: dict[int, set[int]] = {}
        for vertex, label in enumerate(communities.tolist()):
            by_label.setdefault(label, set()).add(int(components[vertex]))
        assert all(len(comps) == 1 for comps in by_label.values())

    @given(undirected_graphs())
    @settings(max_examples=20, deadline=None)
    def test_cdlp_fixed_point(self, graph):
        """Running more iterations from a converged state changes nothing."""
        short = cdlp(graph, max_iterations=30)
        longer = cdlp(graph, max_iterations=60)
        assert np.array_equal(short, longer)


class TestLigraInvariants:
    @given(undirected_graphs())
    @settings(max_examples=25, deadline=None)
    def test_edge_map_direction_invariance(self, graph):
        """Whichever direction edge_map takes, the updated set is the same."""
        ids = np.flatnonzero(graph.out_degrees > 0)
        if ids.size == 0:
            return
        frontier = ids[:3]

        def run(pull):
            hit = np.zeros(graph.num_vertices, dtype=bool)

            def update(sources, targets, weights):
                hit[targets] = True
                return np.ones(targets.size, dtype=bool)

            out = edge_map(graph, frontier, update, pull=pull)
            return set(out.tolist()), set(np.flatnonzero(hit).tolist())

        sparse_out, sparse_hit = run(False)
        dense_out, dense_hit = run(True)
        assert sparse_out == dense_out
        assert sparse_hit == dense_hit


class TestWorkCounterInvariants:
    @given(undirected_graphs())
    @settings(max_examples=15, deadline=None)
    def test_tc_agreement_on_random_graphs_with_weights_present(self, graph):
        """Weights must never affect triangle counts."""
        rng = np.random.default_rng(0)
        weighted = CSRGraph.from_edge_list(
            graph.to_edge_list().with_uniform_weights(rng), directed=False
        )
        assert get("gap").triangle_count(weighted) == get("gap").triangle_count(graph)
