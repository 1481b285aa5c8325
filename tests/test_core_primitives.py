"""Tests for shared core primitives: bitmap, the CSR gather, hooking, counters."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import counters
from repro.core.bitmap import Bitmap
from repro.core.hooking import compress, converge, hook_pass, majority_component
from repro.la import gather_edges, gather_edges_weighted


class TestBitmap:
    def test_set_and_contains(self):
        b = Bitmap(8)
        b.set(np.array([1, 5]))
        assert b.contains(np.array([0, 1, 5])).tolist() == [False, True, True]
        assert 5 in b and 0 not in b

    def test_scalar_contains(self):
        b = Bitmap(4)
        b.set(2)
        assert b.contains(2) is True

    def test_clear(self):
        b = Bitmap.from_indices(8, np.array([1, 2, 3]))
        b.clear(np.array([2]))
        assert b.to_indices().tolist() == [1, 3]
        b.clear()
        assert b.count() == 0

    def test_count_and_len(self):
        b = Bitmap.from_indices(8, np.array([0, 7]))
        assert b.count() == len(b) == 2

    def test_swap(self):
        a = Bitmap.from_indices(4, np.array([0]))
        b = Bitmap.from_indices(4, np.array([1, 2]))
        a.swap(b)
        assert a.to_indices().tolist() == [1, 2]
        assert b.to_indices().tolist() == [0]


class TestExpandFrontier:
    def test_matches_manual(self, tiny_graph):
        srcs, tgts = gather_edges(
            tiny_graph.indptr, tiny_graph.indices, np.array([0, 2])
        )
        assert srcs.tolist() == [0, 0, 2]
        assert tgts.tolist() == [1, 2, 3]

    def test_empty_frontier(self, tiny_graph):
        srcs, tgts = gather_edges(
            tiny_graph.indptr, tiny_graph.indices, np.empty(0, dtype=np.int64)
        )
        assert srcs.size == tgts.size == 0

    def test_isolated_vertices(self, tiny_graph):
        srcs, tgts = gather_edges(
            tiny_graph.indptr, tiny_graph.indices, np.array([4])
        )
        assert srcs.size == 0

    def test_weighted(self):
        from repro.generators import build_graph, weighted_version

        g = weighted_version(build_graph("road", scale=7))
        v = int(np.flatnonzero(g.out_degrees > 0)[0])
        srcs, tgts, weights = gather_edges_weighted(
            g.indptr, g.indices, g.weights, np.array([v])
        )
        assert np.array_equal(tgts, g.neighbors(v))
        assert np.array_equal(weights, g.neighbor_weights(v))

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_expansion_preserves_degree_sum(self, seed):
        from repro.generators import build_graph

        g = build_graph("kron", scale=7, seed=seed % 5)
        rng = np.random.default_rng(seed)
        frontier = np.unique(rng.integers(0, g.num_vertices, size=10))
        srcs, tgts = gather_edges(g.indptr, g.indices, frontier)
        assert srcs.size == int(g.out_degrees[frontier].sum())


class TestHooking:
    def test_compress_resolves_chains(self):
        comp = np.array([1, 2, 2])
        compress(comp)
        assert comp.tolist() == [2, 2, 2]

    def test_hook_pass_merges(self):
        comp = np.arange(4)
        changed = hook_pass(comp, np.array([0]), np.array([3]))
        assert changed
        compress(comp)
        assert comp[0] == comp[3]

    def test_hook_pass_empty(self):
        comp = np.arange(3)
        assert not hook_pass(comp, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    def test_converge_path(self):
        n = 20
        comp = np.arange(n)
        src = np.arange(n - 1)
        dst = np.arange(1, n)
        converge(comp, src, dst)
        assert (comp == 0).all()

    def test_converge_two_components(self):
        comp = np.arange(6)
        converge(comp, np.array([0, 1, 3, 4]), np.array([1, 2, 4, 5]))
        assert comp[0] == comp[1] == comp[2] == 0
        assert comp[3] == comp[4] == comp[5] == 3

    def test_majority_component(self):
        comp = np.array([0] * 90 + [5] * 10)
        rng = np.random.default_rng(0)
        assert majority_component(comp, rng) == 0

    def test_majority_empty(self):
        assert majority_component(np.empty(0, dtype=np.int64), np.random.default_rng(0)) == 0


class TestCounters:
    def test_nested_counting_isolated(self):
        with counters.counting() as outer:
            counters.add_edges(5)
            with counters.counting() as inner:
                counters.add_edges(3)
        assert outer.edges_examined == 5
        assert inner.edges_examined == 3

    def test_noop_outside_context(self):
        counters.add_edges(100)  # must not raise
        counters.add_round()
        counters.note("x")

    def test_all_channels(self):
        with counters.counting() as work:
            counters.add_edges(2)
            counters.add_vertices(3)
            counters.add_round()
            counters.add_iteration()
            counters.note("k", 2.0)
            counters.note("k", 1.0)
        assert work.edges_examined == 2
        assert work.vertices_touched == 3
        assert work.rounds == 1
        assert work.iterations == 1
        assert work.extras["k"] == 3.0
