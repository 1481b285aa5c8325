"""Shape tests for the paper's per-kernel narrative claims (Section V).

These tests assert the *mechanisms* behind Table V's patterns using the
machine-independent work counters, so they hold regardless of wall-clock
noise: algorithmic effects (iteration counts, rounds, edges examined) are
what the reproduction is supposed to preserve.
"""

import numpy as np
import pytest

from repro import counters
from repro.frameworks import Mode, RunContext, get
from repro.generators import build_graph, weighted_version

SCALE = 11


@pytest.fixture(scope="module")
def road():
    return build_graph("road", scale=SCALE)


@pytest.fixture(scope="module")
def kron():
    return build_graph("kron", scale=SCALE)


@pytest.fixture(scope="module")
def urand():
    return build_graph("urand", scale=SCALE)


def source_of(graph):
    return int(np.flatnonzero(graph.out_degrees > 0)[0])


class TestGaussSeidelConvergence:
    """'Galois is faster than GAP because its Gauss-Seidel-style algorithm
    converges faster and performs fewer operations than Jacobi.'

    In this vectorized substrate Gauss-Seidel is blocked (Jacobi within a
    block), so the iteration saving is graph-dependent; the social-network
    topology shows it reliably (see EXPERIMENTS.md for the discussion).
    """

    @pytest.fixture(scope="class")
    def twitter12(self):
        return build_graph("twitter", scale=12)

    @pytest.mark.parametrize("gs_framework", ["galois", "nwgraph", "gkc"])
    def test_fewer_iterations_than_jacobi(self, twitter12, gs_framework):
        with counters.counting() as jacobi:
            get("gap").pagerank(twitter12)
        with counters.counting() as gs:
            get(gs_framework).pagerank(twitter12)
        assert gs.iterations < jacobi.iterations

    def test_same_fixed_point(self, twitter12):
        jacobi = get("gap").pagerank(twitter12, tolerance=1e-9, max_iterations=300)
        gs = get("galois").pagerank(twitter12, tolerance=1e-9, max_iterations=300)
        assert np.abs(jacobi - gs).max() < 1e-6


class TestLabelPropagationBlowup:
    """'GraphIt CC runs in O(E*D)... 0.17% of reference on Road.'"""

    def test_label_prop_iterations_grow_with_diameter(self, road, kron):
        with counters.counting() as on_road:
            get("graphit").connected_components(road)
        with counters.counting() as on_kron:
            get("graphit").connected_components(kron)
        assert on_road.iterations > 4 * on_kron.iterations

    def test_label_prop_examines_far_more_edges_than_afforest(self, road):
        with counters.counting() as label_prop:
            get("graphit").connected_components(road)
        with counters.counting() as afforest:
            get("gap").connected_components(road)
        assert label_prop.edges_examined > 5 * afforest.edges_examined

    def test_short_circuit_reduces_iterations(self, road):
        """The Optimized Road schedule's ~3x from short-circuiting."""
        ctx = RunContext(mode=Mode.OPTIMIZED, graph_name="road")
        with counters.counting() as plain:
            get("graphit").connected_components(road)
        with counters.counting() as short_circuit:
            get("graphit").connected_components(road, ctx)
        assert short_circuit.iterations * 2 < plain.iterations


class TestBucketFusion:
    """'GraphIt reduces the number of rounds/synchronizations by a factor
    of ten while maintaining a strict priority order' (on Road)."""

    def test_fusion_cuts_rounds_on_road(self, road):
        from repro.graphit import graphit_sssp
        from repro.graphit.schedules import baseline_schedule

        graph = weighted_version(road)
        source = source_of(graph)
        fused_schedule = baseline_schedule("sssp").with_(delta=64, bucket_fusion=True)
        plain_schedule = fused_schedule.with_(bucket_fusion=False)
        with counters.counting() as fused:
            graphit_sssp(graph, source, fused_schedule)
        with counters.counting() as plain:
            graphit_sssp(graph, source, plain_schedule)
        assert fused.rounds * 1.5 < plain.rounds
        assert fused.extras.get("fused_rounds", 0) > 0

    def test_gap_reference_also_fuses(self, road):
        from repro import la
        from repro.gapbs.sssp import delta_stepping

        graph = weighted_version(road)
        source = source_of(graph)
        with counters.counting() as fused:
            delta_stepping(graph, source, delta=64)
        with counters.counting() as plain:
            # The unfused body GKC and NWGraph run.
            la.delta_stepping(graph.indptr, graph.indices, graph.weights, source, 64)
        assert fused.rounds < plain.rounds


class TestDirectionOptimization:
    """Direction-optimizing BFS must examine far fewer edges than pure push
    on low-diameter power-law graphs (Beamer's classic result)."""

    def test_fewer_edges_than_push_only(self, kron):
        from repro.graphit import graphit_bfs
        from repro.graphit.schedules import baseline_schedule
        from repro.graphitc import Direction

        source = source_of(kron)
        with counters.counting() as hybrid:
            graphit_bfs(kron, source, baseline_schedule("bfs"))
        with counters.counting() as push:
            graphit_bfs(
                kron,
                source,
                baseline_schedule("bfs").with_(direction=Direction.SPARSE_PUSH),
            )
        assert hybrid.edges_examined < push.edges_examined

    def test_push_only_wins_rounds_overhead_on_road(self, road):
        """'GraphIt (Optimized) is faster on Road... always push.'"""
        from repro.graphit import graphit_bfs
        from repro.graphit.schedules import baseline_schedule, optimized_schedule
        from repro.graphitc import Direction

        assert (
            optimized_schedule("bfs", "road").direction is Direction.SPARSE_PUSH
        )
        source = source_of(road)
        parents_a = graphit_bfs(road, source, baseline_schedule("bfs"))
        parents_b = graphit_bfs(road, source, optimized_schedule("bfs", "road"))
        assert np.array_equal(parents_a >= 0, parents_b >= 0)


class TestCacheTiling:
    """'GraphIt is faster than GAP due to cache optimization from tiling
    the graph... the preprocessing time is small compared to the
    performance gains, so it is amortized within 2-5 iterations.'"""

    def test_tiled_pr_beats_untiled_graphit(self):
        import time

        from repro.frameworks import get

        # The amortization argument needs enough iterations x edges; use
        # the benchmark-scale graph rather than the small test fixture.
        kron13 = build_graph("kron", scale=13)
        graphit = get("graphit")
        ctx = RunContext(mode=Mode.OPTIMIZED, graph_name="kron")
        # Warm up, then time interleaved pairs: the tiled schedule (with
        # its preprocessing inside the call) must still beat the
        # per-iteration re-expansion.  The best of several pairs per side
        # is compared, because one pair of ~10 ms calls is at the mercy of
        # whatever else the machine is doing.
        baseline = graphit.pagerank(kron13)
        tiled = graphit.pagerank(kron13, ctx)
        assert np.allclose(baseline, tiled)
        untiled_s, tiled_s = [], []
        for _ in range(7):
            start = time.perf_counter()
            graphit.pagerank(kron13)
            mid = time.perf_counter()
            graphit.pagerank(kron13, ctx)
            end = time.perf_counter()
            untiled_s.append(mid - start)
            tiled_s.append(end - mid)
        assert min(tiled_s) < min(untiled_s)

    def test_segment_structure_reused(self, kron):
        ctx = RunContext(mode=Mode.OPTIMIZED, graph_name="kron")
        with counters.counting() as work:
            get("graphit").pagerank(kron, ctx)
        segments_per_iteration = work.extras["cache_segments"] / work.iterations
        assert segments_per_iteration >= 2


class TestAsyncScheduling:
    """Galois' Baseline heuristic assumes uniform degrees imply high
    diameter and picks the asynchronous variant — correct on Road, the
    known misfire on Urand (the paper's footnote); Optimized mode, knowing
    the real diameters, switches Urand back to bulk-synchronous."""

    def test_baseline_heuristic_picks_async_for_uniform(self, road, urand, kron):
        from repro.graphs import degree_skewed

        assert not degree_skewed(road)
        assert not degree_skewed(urand)  # the known misfire on Urand
        assert degree_skewed(kron)

    def test_baseline_runs_async_on_urand(self, urand):
        """Async execution has no synchronization rounds — the counter
        discriminates which variant actually ran."""
        source = source_of(urand)
        with counters.counting() as baseline:
            get("galois").bfs(urand, source)
        assert baseline.rounds == 0  # asynchronous: no round barriers

    def test_optimized_runs_sync_on_urand(self, urand):
        """'For the Optimized case, the bulk-synchronous variant ... ran
        better' — Galois switches Urand to sync when the diameter is known."""
        ctx = RunContext(mode=Mode.OPTIMIZED, graph_name="urand")
        source = source_of(urand)
        with counters.counting() as optimized:
            get("galois").bfs(urand, source, ctx)
        assert optimized.rounds > 0  # bulk-synchronous: barriers counted

    def test_optimized_keeps_async_on_road(self, road):
        ctx = RunContext(mode=Mode.OPTIMIZED, graph_name="road")
        source = source_of(road)
        with counters.counting() as optimized:
            get("galois").bfs(road, source, ctx)
        assert optimized.rounds == 0

    def test_async_and_sync_agree(self, urand):
        from repro.galois.bfs import async_bfs, sync_bfs

        source = source_of(urand)
        a = async_bfs(urand, source)
        b = sync_bfs(urand, source)
        assert np.array_equal(a >= 0, b >= 0)


class TestAfforest:
    """Afforest's sample-and-skip vs full-sweep SV.

    Note: the paper's 'Afforest is less effective on Urand' effect (Sutton
    et al.) depends on billion-scale uniform graphs; at laptop scale a
    2-out random subgraph of Urand is already fully connected, so the
    sampling phase captures everything (see EXPERIMENTS.md).
    """

    def test_skewed_graphs_leave_vertices_outside_giant(self, kron):
        with counters.counting() as on_kron:
            get("gap").connected_components(kron)
        assert on_kron.extras.get("vertices_outside_giant", 0) > 0

    def test_uniform_graph_fully_captured_by_neighbor_rounds(self, urand):
        with counters.counting() as on_urand:
            get("gap").connected_components(urand)
        assert on_urand.extras.get("vertices_outside_giant", 1) == 0

    def test_afforest_skips_most_edge_work_on_powerlaw(self, kron):
        """Afforest's O(V)-ish behaviour vs full-sweep SV."""
        with counters.counting() as afforest:
            get("gap").connected_components(kron)
        with counters.counting() as shiloach_vishkin:
            get("gkc").connected_components(kron)
        assert afforest.edges_examined < shiloach_vishkin.edges_examined


class TestSuccessorReuse:
    """'GAP is faster because it saves the list of successors for each
    vertex using a bitmap' — saved-DAG Brandes re-examines fewer edges."""

    def test_saved_dag_less_backward_work(self, kron):
        sources = np.flatnonzero(kron.out_degrees > 0)[:4]
        with counters.counting() as saved:
            get("gap").betweenness(kron, sources)
        with counters.counting() as refiltered:
            get("galois").betweenness(kron, sources)
        assert saved.edges_examined < refiltered.edges_examined


class TestRelabelHeuristic:
    """TC's sampling heuristic: relabel skewed graphs, skip uniform ones."""

    def test_relabels_powerlaw_not_uniform(self, kron, urand):
        with counters.counting() as on_kron:
            get("gap").triangle_count(kron)
        with counters.counting() as on_urand:
            get("gap").triangle_count(urand)
        assert on_kron.extras.get("relabelled", 0) == 1
        assert "relabelled" not in on_urand.extras

    def test_relabel_reduces_wedge_work(self, kron):
        from repro.gapbs.tc import forward_adjacency, triangle_count as gap_tc
        from repro.la import count_forward_triangles

        with counters.counting() as with_relabel:
            a = gap_tc(kron)
        with counters.counting() as without:
            b = count_forward_triangles(*forward_adjacency(kron))
        assert with_relabel.extras["relabelled"] == 1
        assert a == b
        assert with_relabel.edges_examined < without.edges_examined
