"""Tests for GKC's substrate piece: the TC batcher."""

import numpy as np

from repro import counters
from repro.gkc.tc import gkc_tc
from repro.graphs import CSRGraph


class TestGkcTcBatching:
    def test_block_budget_invariance(self, triangle_graph):
        """The wedge-block budget must not change the count."""
        import repro.gkc.tc as tc_module

        original = tc_module.WEDGE_BLOCK
        try:
            for budget in (4, 64, 1 << 20):
                tc_module.WEDGE_BLOCK = budget
                assert gkc_tc(triangle_graph) == 5
        finally:
            tc_module.WEDGE_BLOCK = original

    def test_two_sided_expansion_matches_reference(self, corpus):
        from repro.gapbs.tc import triangle_count as gap_tc

        for name in ("kron", "urand", "web"):
            graph = corpus[name]
            undirected = graph.to_undirected() if graph.directed else graph
            assert gkc_tc(undirected) == gap_tc(undirected), name

    def test_path_graph_no_triangles(self):
        n = 32
        path = CSRGraph.from_arrays(
            n, np.arange(n - 1), np.arange(1, n), directed=False
        )
        assert gkc_tc(path) == 0

    def test_wedge_work_bounded_by_one_sided(self, corpus):
        """Two-sided expansion must never examine more wedges than the
        one-sided (GAP-style) enumeration."""
        from repro.gapbs.tc import triangle_count as gap_tc

        graph = corpus["twitter"].to_undirected()
        with counters.counting() as two_sided:
            gkc_tc(graph)
        with counters.counting() as one_sided:
            gap_tc(graph)
        assert two_sided.edges_examined <= one_sided.edges_examined
