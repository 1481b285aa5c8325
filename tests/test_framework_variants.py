"""Tests for framework-specific algorithm variants and mode switches."""

import numpy as np
import pytest

from repro import counters
from repro.frameworks import Mode, RunContext, get
from repro.generators import build_graph, weighted_version


class TestGaloisVariants:
    def test_edge_blocking_cc_same_partition(self, corpus):
        from repro.galois.cc import galois_afforest

        graph = corpus["web"]
        plain = galois_afforest(graph, edge_blocking=False)
        blocked = galois_afforest(graph, edge_blocking=True)
        # Identical partitions (labels may differ by representative).
        _, plain_ids = np.unique(plain, return_inverse=True)
        _, blocked_ids = np.unique(blocked, return_inverse=True)
        assert np.array_equal(plain_ids, blocked_ids)

    def test_optimized_web_uses_edge_blocking(self, corpus):
        graph = corpus["web"]
        ctx = RunContext(mode=Mode.OPTIMIZED, graph_name="web")
        labels = get("galois").connected_components(graph, ctx)
        oracle = get("gap").connected_components(graph)
        assert len(np.unique(labels)) == len(np.unique(oracle))

    def test_sync_async_sssp_agree(self, weighted_corpus):
        from repro.galois.sssp import async_delta_stepping, sync_delta_stepping

        graph = weighted_corpus["web"]
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        a = sync_delta_stepping(graph, source, delta=32)
        b = async_delta_stepping(graph, source, delta=32)
        assert np.array_equal(
            np.nan_to_num(a, posinf=-1.0), np.nan_to_num(b, posinf=-1.0)
        )

    def test_async_chunk_size_irrelevant_to_result(self, weighted_corpus):
        from repro.galois.sssp import async_delta_stepping

        graph = weighted_corpus["road"]
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        a = async_delta_stepping(graph, source, delta=64, chunk_size=16)
        b = async_delta_stepping(graph, source, delta=64, chunk_size=4096)
        assert np.array_equal(
            np.nan_to_num(a, posinf=-1.0), np.nan_to_num(b, posinf=-1.0)
        )


class TestGraphItVariants:
    def test_intersect_methods_agree(self, corpus):
        """One closing test under every framework: GraphIt's count is GAP's."""
        from repro.gapbs.tc import triangle_count
        from repro.graphit.tc import graphit_tc

        graph = corpus["kron"]
        assert graphit_tc(graph) == triangle_count(graph)

    def test_optimized_road_tc_uses_merge(self, corpus):
        """The paper's Optimized Road switch to naive intersection selects
        nothing here (one closing test); the count must not depend on it."""
        graph = corpus["road"].to_undirected()
        ctx = RunContext(mode=Mode.OPTIMIZED, graph_name="road")
        baseline = get("graphit").triangle_count(graph)
        optimized = get("graphit").triangle_count(graph, ctx)
        assert baseline == optimized

    def test_schedule_table_defaults(self):
        from repro.graphit.schedules import baseline_schedule, optimized_schedule
        from repro.graphitc import Direction, FrontierLayout

        assert baseline_schedule("sssp").bucket_fusion
        assert baseline_schedule("bc").frontier is FrontierLayout.BITVECTOR
        assert optimized_schedule("bc", "road").frontier is FrontierLayout.SPARSE_ARRAY
        assert optimized_schedule("pr", "twitter").num_segments > 0
        assert optimized_schedule("pr", "web").num_segments == 0  # good locality
        assert optimized_schedule("bfs", "kron").direction is not Direction.SPARSE_PUSH

    def test_tiled_pr_matches_untiled(self, corpus):
        graph = corpus["kron"]
        ctx = RunContext(mode=Mode.OPTIMIZED, graph_name="kron")
        tiled = get("graphit").pagerank(graph, ctx)
        plain = get("graphit").pagerank(graph)
        assert np.allclose(tiled, plain)

    def test_bitvector_and_sparse_bc_agree(self, corpus):
        from repro.graphit import graphit_bc
        from repro.graphit.schedules import baseline_schedule
        from repro.graphitc import FrontierLayout

        graph = corpus["road"]
        sources = np.flatnonzero(graph.out_degrees > 0)[:4]
        bitvector = graphit_bc(graph, sources, baseline_schedule("bc"))
        sparse = graphit_bc(
            graph,
            sources,
            baseline_schedule("bc").with_(frontier=FrontierLayout.SPARSE_ARRAY),
        )
        assert np.allclose(bitvector, sparse)


class TestNWGraphDetails:
    def test_simple_switch_uses_pull_on_dense_frontier(self, corpus):
        """NWGraph's size-only heuristic must enter pull mode on kron."""
        from repro.nwgraph.bfs import nwgraph_bfs

        graph = corpus["kron"]
        source = int(np.argmax(graph.out_degrees))
        with counters.counting() as work:
            nwgraph_bfs(graph, source)
        # Pull rounds scan the in-adjacency of unvisited vertices: edge
        # count exceeds pure-push volume when the pull path was taken.
        push_volume = int(graph.out_degrees[source])  # lower bound sanity
        assert work.edges_examined > push_volume

    def test_tc_always_relabels(self, corpus):
        """NWGraph's TC sorts/relabels unconditionally (edge-list strategy)."""
        from repro.nwgraph.tc import nwgraph_tc
        from repro.gapbs.tc import triangle_count as gap_tc

        graph = corpus["urand"]
        assert nwgraph_tc(graph) == gap_tc(graph)


class TestGKCDetails:
    def test_sv_working_set_shrinks(self, corpus):
        """The hybrid refinement: settled edges leave the working set, so
        total edge work is below passes * |E|."""
        from repro.gkc.cc import gkc_cc

        graph = corpus["kron"]
        with counters.counting() as work:
            gkc_cc(graph)
        total_possible = work.iterations * graph.num_edges * (
            2 if graph.directed else 1
        )
        assert work.edges_examined < total_possible


class TestModeEquivalence:
    """Optimized-mode tuning must never change *results*, only performance."""

    @pytest.mark.parametrize("fw_name", ["gap", "suitesparse", "galois", "nwgraph", "graphit", "gkc"])
    def test_pagerank_identical_across_modes(self, corpus, fw_name):
        graph = corpus["twitter"]
        framework = get(fw_name)
        base = framework.pagerank(graph, RunContext(graph_name="twitter"))
        opt = framework.pagerank(
            graph, RunContext(mode=Mode.OPTIMIZED, graph_name="twitter")
        )
        assert np.allclose(base, opt, atol=1e-4)

    @pytest.mark.parametrize("fw_name", ["galois", "graphit"])
    def test_bc_identical_across_modes(self, corpus, fw_name):
        graph = corpus["road"]
        sources = np.flatnonzero(graph.out_degrees > 0)[:4]
        framework = get(fw_name)
        base = framework.betweenness(graph, sources, RunContext(graph_name="road"))
        opt = framework.betweenness(
            graph, sources, RunContext(mode=Mode.OPTIMIZED, graph_name="road")
        )
        assert np.allclose(base, opt)


class TestGaloisAsyncBC:
    def test_async_matches_sync(self, corpus):
        from repro.galois.bc import galois_bc, galois_bc_async

        for name in ("road", "kron", "urand"):
            graph = corpus[name]
            sources = np.flatnonzero(graph.out_degrees > 0)[:4]
            sync = galois_bc(graph, sources)
            eager = galois_bc_async(graph, sources)
            assert np.allclose(sync, eager), name

    def test_async_does_extra_sigma_pass_work(self, corpus):
        """The async variant rebuilds path counts after depths settle —
        its work-efficiency price, which the paper measured as a Baseline
        penalty on Urand."""
        from repro.galois.bc import galois_bc, galois_bc_async

        graph = corpus["urand"]
        sources = np.flatnonzero(graph.out_degrees > 0)[:2]
        with counters.counting() as sync:
            galois_bc(graph, sources)
        with counters.counting() as eager:
            galois_bc_async(graph, sources)
        assert eager.edges_examined > sync.edges_examined

    def test_framework_dispatches_by_heuristic(self, corpus):
        """Baseline on a power-law graph: sync (rounds counted in the
        forward phase); on a uniform graph: async forward."""
        galois = get("galois")
        sources = np.flatnonzero(corpus["kron"].out_degrees > 0)[:2]
        ref = get("gap").betweenness(corpus["kron"], sources)
        out = galois.betweenness(corpus["kron"], sources)
        assert np.allclose(out, ref)
        sources_u = np.flatnonzero(corpus["urand"].out_degrees > 0)[:2]
        ref_u = get("gap").betweenness(corpus["urand"], sources_u)
        out_u = galois.betweenness(corpus["urand"], sources_u)
        assert np.allclose(out_u, ref_u)
