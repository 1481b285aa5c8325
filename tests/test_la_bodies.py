"""The four shared kernel bodies against their oracles.

Direction-optimizing BFS (``la.direction``), Δ-stepping (``la.frontier``),
blocked Gauss-Seidel PageRank (``la.spmv``) and Afforest (``core.hooking``)
each exist once and are called by three to four frameworks with their
differences as arguments.  ``tests/reference/la_oracle.py`` keeps the text
they replaced; ``repro.core.verify`` keeps oracles that share nothing with
either.  Here each body meets both, on small random graphs where every
awkward shape occurs: unreachable and isolated vertices, sinks, a frontier
already small when a pull is wanted, empty blocks, more blocks than rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import counters, hooking
from repro.core.hooking import afforest, converge, converge_in_blocks
from repro.core.verify import cc_oracle, reference_bfs_depths, sssp_oracle
from repro.gapbs.pagerank import jacobi_pagerank
from repro.graphs import CSRGraph
from repro.la import (
    DirectionOptimizer,
    blocked_gauss_seidel,
    delta_stepping,
    direction_optimizing_traversal,
)
from repro.la.direction import BETA, Step
from tests.reference import la_oracle


@st.composite
def graphs(draw, weighted=False, max_vertices=24):
    n = draw(st.integers(1, max_vertices))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n))
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    weights = None
    if weighted:
        weights = np.array(
            draw(st.lists(st.integers(1, 40), min_size=len(edges), max_size=len(edges))),
            dtype=np.float64,
        )
    directed = draw(st.booleans())
    return CSRGraph.from_arrays(n, src, dst, weights, directed=directed)


def csr4(graph):
    return graph.indptr, graph.indices, graph.in_indptr, graph.in_indices


# --- direction-optimizing BFS -------------------------------------------------


def expected_steps(graph, source, policy):
    """The step record, from BFS levels and the policy run as a state machine.

    Shares no loop with the traversal: level ``i`` is the frontier of step
    ``i`` whatever direction found it; a push examines the frontier's
    out-edges, a full-scan pull the in-edges of everything still unvisited.
    The machine is NWGraph's ``pulling`` flag, asked GAP's questions: scout
    only while pushing, enter the pull regime only with a frontier that is
    not already small, leave it by pushing the first small frontier.
    """
    depths = reference_bfs_depths(graph, source)
    steps, pulling = [], False
    for level in range(int(depths.max()) + 1):
        frontier = np.flatnonzero(depths == level)
        if not pulling:
            scout = policy.scout_count(graph.out_degrees, frontier)
            policy.charge(scout)
            if policy.wants_pull(scout, frontier.size):
                policy.switches += 1
                pulling = not policy.frontier_is_small(frontier.size)
        elif policy.frontier_is_small(frontier.size):
            pulling = False
        if pulling:
            unvisited = (depths > level) | (depths < 0)
            steps.append(Step("pull", frontier.size, int(graph.in_degrees[unvisited].sum())))
        else:
            steps.append(Step("push", frontier.size, int(graph.out_degrees[frontier].sum())))
    return steps


def policies(graph, alpha, fractions):
    n, m = graph.num_vertices, graph.num_edges
    return [
        lambda: DirectionOptimizer(n, m, alpha=alpha),
        lambda: DirectionOptimizer(n, m, size_fractions=fractions),
    ]


def assert_traversal(graph, source, make_policy):
    ours_policy, oracle_policy, machine = make_policy(), make_policy(), make_policy()
    parents, steps = direction_optimizing_traversal(*csr4(graph), source, ours_policy)
    ref_parents, ref_steps = la_oracle.direction_optimizing_traversal(
        *csr4(graph), source, oracle_policy
    )
    assert parents.tobytes() == ref_parents.tobytes()
    assert steps == ref_steps == expected_steps(graph, source, machine)
    assert ours_policy.switches == oracle_policy.switches == machine.switches

    # A valid BFS tree: every parent edge exists and descends one level.
    depths = reference_bfs_depths(graph, source)
    assert ((parents >= 0) == (depths >= 0)).all()
    reached = np.flatnonzero((parents >= 0) & (np.arange(parents.size) != source))
    assert (depths[parents[reached]] == depths[reached] - 1).all()
    for child in reached:
        assert child in graph.neighbors(int(parents[child]))

    # The early-exit pull finds the same parents in the same steps for less.
    fast_parents, fast_steps = direction_optimizing_traversal(
        *csr4(graph), source, make_policy(), pull_early_exit=True
    )
    assert fast_parents.tobytes() == parents.tobytes()
    assert [s[:2] for s in fast_steps] == [s[:2] for s in steps]
    assert all(f.edges_examined <= s.edges_examined for f, s in zip(fast_steps, steps))
    return steps


class TestPolicyPredicates:
    @given(
        n=st.integers(1, 500),
        m=st.integers(0, 5000),
        alpha=st.integers(-2, 64),
        charged=st.integers(0, 6000),
        scout=st.integers(0, 6000),
        size=st.integers(0, 500),
    )
    def test_scout_rule(self, n, m, alpha, charged, scout, size):
        policy = DirectionOptimizer(n, m, alpha=alpha)
        policy.charge(charged)
        assert policy.edges_remaining == m - charged
        expected = alpha > 0 and scout > max(m - charged, 1) // max(alpha, 1)
        assert policy.wants_pull(scout, size) == policy.wants_pull(scout) == expected
        assert policy.frontier_is_small(size) == (size <= n // BETA)

    @given(
        n=st.integers(1, 500),
        size=st.integers(0, 500),
        pull_above=st.floats(0.0, 1.0),
        push_below=st.floats(0.0, 1.0),
    )
    def test_size_only_rule_consults_no_edge_count(self, n, size, pull_above, push_below):
        policy = DirectionOptimizer(n, 10**6, size_fractions=(pull_above, push_below))
        out_degrees = np.full(n, 7)
        assert policy.scout_count(out_degrees, np.arange(min(size, n))) == 0
        assert policy.wants_pull(10**9, size) == (size / n > pull_above)
        assert policy.frontier_is_small(size) == (size / n < push_below)


class TestTraversalNamedCases:
    def test_ends_bottom_up_without_a_round_for_the_emptied_frontier(self):
        """A clique: the source's edges already exceed a fifteenth of the
        rest, both frontiers are pulled, and the pull that finds nothing is
        the last step — two steps, two rounds."""
        n = 12
        src, dst = np.nonzero(~np.eye(n, dtype=bool))
        graph = CSRGraph.from_arrays(n, src, dst, directed=False)
        policy = lambda: DirectionOptimizer(n, graph.num_edges)
        steps = assert_traversal(graph, 0, policy)
        assert [s.direction for s in steps] == ["pull", "pull"]
        assert [s.frontier_size for s in steps] == [1, n - 1]

    def test_ends_top_down(self):
        """A path: every frontier is one vertex, too small to pull."""
        n = 40
        graph = CSRGraph.from_arrays(n, np.arange(n - 1), np.arange(1, n))
        steps = assert_traversal(graph, 0, lambda: DirectionOptimizer(n, graph.num_edges))
        assert [s.direction for s in steps] == ["push"] * n
        assert steps[-1] == Step("push", 1, 0)

    def test_pull_wanted_with_a_frontier_already_small(self):
        """A star from its centre's only in-neighbour: the second frontier is
        one vertex owning every remaining edge — pull is wanted, the frontier
        is already small, so the regime is entered, left, and the step pushes."""
        n = 40
        src = np.concatenate([[0], np.full(n - 2, 1)])
        dst = np.concatenate([[1], np.arange(2, n)])
        graph = CSRGraph.from_arrays(n, src, dst)
        policy = DirectionOptimizer(n, graph.num_edges)
        _, steps = direction_optimizing_traversal(*csr4(graph), 0, policy)
        assert policy.switches == 1
        assert [s.direction for s in steps] == ["push", "push", "push"]
        assert_traversal(graph, 0, lambda: DirectionOptimizer(n, graph.num_edges))

    def test_isolated_source_is_one_step_of_no_edges(self):
        graph = CSRGraph.from_arrays(3, np.array([0]), np.array([1]))
        parents, steps = direction_optimizing_traversal(
            *csr4(graph), 2, DirectionOptimizer(3, 1)
        )
        assert parents.tolist() == [-1, -1, 2] and steps == [Step("push", 1, 0)]

    def test_frameworks_report_a_round_per_step(self, corpus):
        from repro.frameworks import get

        graph = corpus["web"]
        source = int(np.argmax(graph.out_degrees))
        _, steps = direction_optimizing_traversal(
            *csr4(graph), source, DirectionOptimizer(graph.num_vertices, graph.num_edges)
        )
        assert steps[-1].direction == "pull"
        for name in ("gap", "gkc"):
            with counters.counting() as work:
                get(name).bfs(graph, source)
            assert work.rounds == len(steps)
            assert work.edges_examined == sum(s.edges_examined for s in steps)


@pytest.mark.tier2
@settings(max_examples=150, deadline=None)
@given(
    graph=graphs(max_vertices=40),
    data=st.data(),
    alpha=st.sampled_from([0, 1, 3, 15, 200]),
    fractions=st.sampled_from([(0.05, 0.01), (0.2, 0.1), (0.0, 0.0), (0.5, 0.6)]),
)
def test_traversal_is_the_policy_run_over_bfs_levels(graph, data, alpha, fractions):
    source = data.draw(st.integers(0, graph.num_vertices - 1))
    for make_policy in policies(graph, alpha, fractions):
        assert_traversal(graph, source, make_policy)


# --- Δ-stepping -----------------------------------------------------------------


def assert_delta_stepping(graph, source, delta, fusion_threshold):
    arrays = (graph.indptr, graph.indices, graph.weights)
    dist, examined, rounds, fused = delta_stepping(*arrays, source, delta, fusion_threshold)
    ref = la_oracle.delta_stepping(*arrays, source, delta, fusion_threshold)
    assert dist.tobytes() == ref[0].tobytes()
    assert (examined, rounds, fused) == ref[1:]
    np.testing.assert_array_equal(dist, sssp_oracle(graph, source))
    return dist, examined, rounds, fused


@pytest.mark.tier2
@settings(max_examples=150, deadline=None)
@given(
    graph=graphs(weighted=True),
    data=st.data(),
    delta=st.sampled_from([1, 7, 16, 64]),
    threshold=st.sampled_from([1, 3, 1024]),
)
def test_delta_stepping_fusion_changes_rounds_only(graph, data, delta, threshold):
    source = data.draw(st.integers(0, graph.num_vertices - 1))
    plain = assert_delta_stepping(graph, source, delta, 0)
    fused = assert_delta_stepping(graph, source, delta, threshold)
    assert fused[0].tobytes() == plain[0].tobytes()
    assert plain[3] == 0
    assert fused[2] <= plain[2]


def test_fusion_saves_rounds_on_a_weighted_path():
    """Unit weights, Δ = 8: each bucket refills itself seven times."""
    n = 33
    graph = CSRGraph.from_arrays(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1))
    plain = assert_delta_stepping(graph, 0, 8, 0)
    fused = assert_delta_stepping(graph, 0, 8, 1024)
    assert plain[2] == n and fused[2] == 5 and fused[3] == n - 5
    assert plain[1] == fused[1] == n - 1


# --- blocked Gauss-Seidel -------------------------------------------------------


def pagerank_args(graph):
    return graph.in_indptr, graph.in_indices, graph.out_degrees


def assert_gauss_seidel(graph, bounds, tolerance=1e-6, max_iterations=60):
    bounds = np.asarray(bounds, dtype=np.int64)
    args = (*pagerank_args(graph), bounds, 0.85, tolerance, max_iterations)
    scores, iterations = blocked_gauss_seidel(*args)
    ref_scores, ref_iterations = la_oracle.blocked_gauss_seidel(*args)
    assert iterations == ref_iterations
    np.testing.assert_allclose(scores, ref_scores, rtol=0, atol=1e-12)
    return scores, iterations


class TestGaussSeidelNamedCases:
    def test_one_block_is_the_jacobi_sweep_bitwise(self, corpus):
        for name in ("road", "web", "kron"):
            graph = corpus[name]
            with counters.counting() as work:
                jacobi = jacobi_pagerank(graph)
            scores, iterations = blocked_gauss_seidel(
                *pagerank_args(graph), np.array([0, graph.num_vertices]), 0.85, 1e-4, 100
            )
            assert scores.tobytes() == jacobi.tobytes(), name
            assert iterations == work.iterations, name

    def test_empty_blocks_are_skipped(self, corpus):
        graph = corpus["twitter"]
        n = graph.num_vertices
        plain = assert_gauss_seidel(graph, [0, n // 3, n])
        padded = assert_gauss_seidel(graph, [0, 0, n // 3, n // 3, n // 3, n, n])
        assert plain[0].tobytes() == padded[0].tobytes() and plain[1] == padded[1]

    def test_fewer_rows_than_blocks(self):
        graph = CSRGraph.from_arrays(3, np.array([0, 1, 2]), np.array([1, 2, 0]))
        scores, _ = assert_gauss_seidel(graph, np.linspace(0, 3, 9, dtype=np.int64))
        np.testing.assert_allclose(scores, 1 / 3, atol=1e-6)

    def test_dangling_vertices_contribute_nothing(self):
        # 0 -> 1 -> 2 and 3 -> 2: vertex 2 has no out-edge, nothing points at 0 or 3.
        graph = CSRGraph.from_arrays(4, np.array([0, 1, 3]), np.array([1, 2, 2]))
        scores, _ = assert_gauss_seidel(graph, [0, 1, 2, 3, 4])
        base = 0.15 / 4
        np.testing.assert_allclose(
            scores, [base, base * 1.85, base + 0.85 * (base * 1.85 + base), base], atol=1e-12
        )

    def test_gkc_sweeps_at_least_the_blocks_galois_does(self, corpus):
        """Scale 6 fits one cache-sized block; a single block would be Jacobi."""
        from repro.frameworks import get

        graph = corpus["road"]
        iterations = {}
        for name in ("gap", "galois", "gkc"):
            with counters.counting() as work:
                get(name).pagerank(graph)
            iterations[name] = work.iterations
        assert iterations["gkc"] == iterations["galois"] < iterations["gap"]

    def test_max_iterations_is_a_cap(self, corpus):
        graph = corpus["road"]
        _, iterations = blocked_gauss_seidel(
            *pagerank_args(graph), np.array([0, graph.num_vertices]), 0.85, 0.0, 3
        )
        assert iterations == 3


@pytest.mark.tier2
@settings(max_examples=100, deadline=None)
@given(graph=graphs(), data=st.data())
def test_gauss_seidel_matches_the_prefix_sum_sweeps(graph, data):
    n = graph.num_vertices
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=10)))
    assert_gauss_seidel(graph, [0, *cuts, n])


# --- Afforest -------------------------------------------------------------------


def assert_afforest(graph, seed, block_edges, monkeypatch):
    monkeypatch.setattr(hooking, "EDGE_BLOCK", block_edges)
    plain = afforest(graph, seed, converge)
    blocked = afforest(graph, seed, converge_in_blocks)
    assert plain.tobytes() == blocked.tobytes()
    assert plain.tobytes() == la_oracle.afforest(graph, seed).tobytes()
    ref_blocked = la_oracle.afforest(graph, seed, la_oracle.converge_in_blocks)
    assert blocked.tobytes() == ref_blocked.tobytes()
    # Same partition as the oracle's: labels in one-to-one correspondence.
    oracle = cc_oracle(graph)
    pairs = np.unique(np.stack([plain, oracle]), axis=1)
    assert pairs.shape[1] == np.unique(plain).size == np.unique(oracle).size


def test_blocked_finish_runs_its_blocks(corpus, monkeypatch):
    """Kron leaves vertices outside the giant component; three-edge blocks
    cut their finish edges many ways, each a counted round."""
    graph = corpus["kron"]
    assert_afforest(graph, 0, 3, monkeypatch)
    with counters.counting() as plain:
        afforest(graph, 0, converge)
    with counters.counting() as blocked:
        afforest(graph, 0, converge_in_blocks)
    assert plain.extras["vertices_outside_giant"] > 0
    assert blocked.rounds > plain.rounds


@pytest.mark.tier2
@settings(max_examples=150, deadline=None)
@given(graph=graphs(), seed=st.integers(0, 5), block_edges=st.sampled_from([1, 2, 5, 1 << 15]))
def test_afforest_finishes_agree_with_the_component_oracle(graph, seed, block_edges):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_afforest(graph, seed, block_edges, monkeypatch)
