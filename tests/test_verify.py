"""Tests for the GAP output verifiers: accept good output, reject corrupted.

Also pins the oracle memo :func:`repro.core.verify.verify_output` keeps on
a ``GraphCase``: each oracle is computed once per input while every cell
is still checked, and the memo is no part of the case's identity.
"""

import collections

import numpy as np
import pytest

from repro.core import BenchmarkSpec, GraphCase, run_cell, run_suite, verify
from repro.core.sharedmem import attach_case, export_case
from repro.core.verify import (
    bc_oracle,
    reference_bfs_depths,
    verify_bc,
    verify_bfs,
    verify_cc,
    verify_pr,
    verify_sssp,
    verify_tc,
)
from repro.errors import VerificationError
from repro.frameworks import KERNELS, Mode, all_frameworks, get
from repro.frameworks.registry import FRAMEWORK_NAMES
from repro.generators import weighted_version
from repro.graphs import CSRGraph

from .conftest import networkx_bc


@pytest.fixture(scope="module")
def gap():
    return get("gap")


class TestBFSVerifier:
    def test_accepts_correct(self, gap, corpus):
        graph = corpus["kron"]
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        verify_bfs(graph, source, gap.bfs(graph, source))

    def test_rejects_wrong_parent(self, gap, corpus):
        graph = corpus["kron"]
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        parents = gap.bfs(graph, source)
        victim = int(np.flatnonzero((parents >= 0) & (np.arange(graph.num_vertices) != source))[0])
        parents[victim] = victim  # self-parent lie
        with pytest.raises(VerificationError):
            verify_bfs(graph, source, parents)

    def test_rejects_missing_vertex(self, gap, corpus):
        graph = corpus["kron"]
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        parents = gap.bfs(graph, source)
        reached = np.flatnonzero(parents >= 0)
        parents[reached[-1]] = -1
        with pytest.raises(VerificationError):
            verify_bfs(graph, source, parents)

    def test_rejects_bad_source(self, gap, corpus):
        graph = corpus["kron"]
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        parents = gap.bfs(graph, source)
        parents[source] = -1
        with pytest.raises(VerificationError):
            verify_bfs(graph, source, parents)

    def test_rejects_parent_one_level_up_but_not_adjacent(self):
        """0 -> {1, 2}, 1 -> 3, 2 -> 4: depths alone accept 2 as 3's parent."""
        graph = CSRGraph.from_arrays(5, np.array([0, 0, 1, 2]), np.array([1, 2, 3, 4]))
        verify_bfs(graph, 0, np.array([0, 0, 0, 1, 2]))
        with pytest.raises(VerificationError, match="parent edge missing"):
            verify_bfs(graph, 0, np.array([0, 0, 0, 2, 2]))

    def test_edge_search_agrees_with_has_edge(self, corpus_graph):
        """The all-pairs-at-once search against the per-pair one it replaces."""
        _, graph = corpus_graph
        rng = np.random.default_rng(0)
        real_src, real_dst = graph.edge_array()
        picked = rng.integers(0, real_src.size, size=200)
        src = np.concatenate([real_src[picked], rng.integers(0, graph.num_vertices, 200)])
        dst = np.concatenate([real_dst[picked], rng.integers(0, graph.num_vertices, 200)])
        expected = [graph.has_edge(int(u), int(v)) for u, v in zip(src, dst)]
        assert verify._has_edges(graph, src, dst).tolist() == expected
        assert all(expected[:200]) and not all(expected[200:])

    def test_reference_depths(self, tiny_graph):
        depths = reference_bfs_depths(tiny_graph, 0)
        assert depths.tolist() == [0, 1, 1, 2, -1, -1, -1]


class TestSSSPVerifier:
    def test_accepts_correct(self, gap, corpus):
        graph = weighted_version(corpus["road"])
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        verify_sssp(graph, source, gap.sssp(graph, source))

    def test_rejects_perturbed(self, gap, corpus):
        graph = weighted_version(corpus["road"])
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        dist = gap.sssp(graph, source)
        finite = np.flatnonzero(np.isfinite(dist) & (dist > 0))
        dist[finite[0]] -= 0.5
        with pytest.raises(VerificationError):
            verify_sssp(graph, source, dist)


class TestCCVerifier:
    def test_accepts_correct(self, gap, corpus):
        graph = corpus["urand"]
        verify_cc(graph, gap.connected_components(graph))

    def test_rejects_split_component(self, gap, corpus):
        graph = corpus["urand"]
        labels = gap.connected_components(graph)
        most_common = np.bincount(labels).argmax()
        members = np.flatnonzero(labels == most_common)
        labels[members[0]] = int(labels.max()) + 1
        with pytest.raises(VerificationError):
            verify_cc(graph, labels)

    def test_rejects_merged_components(self, gap, tiny_graph):
        labels = gap.connected_components(tiny_graph)
        labels[:] = 0  # everything one component: wrong
        with pytest.raises(VerificationError):
            verify_cc(tiny_graph, labels)

    def test_accepts_any_relabelling_of_the_partition(self, tiny_graph):
        """Components {0,1,2,3}, {4}, {5,6} under ids no framework would pick."""
        verify_cc(tiny_graph, np.array([-7, -7, -7, -7, 10**12, 3, 3]))

    def test_merged_and_split_are_told_apart(self, tiny_graph):
        with pytest.raises(VerificationError, match="one label spans two"):
            verify_cc(tiny_graph, np.array([0, 0, 0, 0, 0, 5, 5]))
        with pytest.raises(VerificationError, match="got two labels"):
            verify_cc(tiny_graph, np.array([0, 0, 1, 1, 4, 5, 5]))


class TestPRVerifier:
    def test_accepts_correct(self, gap, corpus):
        graph = corpus["twitter"]
        verify_pr(graph, gap.pagerank(graph))

    def test_rejects_uniform_vector(self, corpus):
        graph = corpus["twitter"]
        n = graph.num_vertices
        with pytest.raises(VerificationError):
            verify_pr(graph, np.full(n, 1.0 / n))

    def test_rejects_negative(self, gap, corpus):
        graph = corpus["twitter"]
        scores = gap.pagerank(graph)
        scores[0] = -0.1
        with pytest.raises(VerificationError):
            verify_pr(graph, scores)

    def test_rejects_nan(self, gap, corpus):
        graph = corpus["twitter"]
        scores = gap.pagerank(graph)
        scores[0] = np.nan
        with pytest.raises(VerificationError):
            verify_pr(graph, scores)


class TestBCVerifier:
    def test_accepts_close(self):
        reference = np.array([1.0, 2.0, 3.0])
        verify_bc(reference, reference + 1e-9)

    def test_rejects_divergent(self):
        with pytest.raises(VerificationError):
            verify_bc(np.array([1.0, 2.0]), np.array([1.0, 3.0]))


class TestBCOracle:
    """``bc_oracle`` shares no code with a framework; networkx referees it."""

    def test_matches_networkx_on_tiny_graph(self, tiny_graph):
        roots = np.array([0, 5])
        np.testing.assert_allclose(
            bc_oracle(tiny_graph, roots), networkx_bc(tiny_graph, roots)
        )

    def test_matches_networkx_with_unreachable_vertex_and_sink(self):
        """0 -> {1, 2} -> 3 -> 4 with 0 -> 5 a sink; nothing reaches 6."""
        graph = CSRGraph.from_arrays(
            7,
            np.array([0, 0, 1, 2, 3, 0, 6]),
            np.array([1, 2, 3, 3, 4, 5, 0]),
        )
        roots = np.array([0, 3])
        scores = bc_oracle(graph, roots)
        np.testing.assert_allclose(scores, networkx_bc(graph, roots))
        assert scores[5] == 0.0 and scores[6] == 0.0
        assert scores[3] == 1.0  # only 0 -> 4 passes through 3

    def test_every_framework_passes_against_it(self, corpus_graph):
        _, graph = corpus_graph
        roots = np.random.default_rng(2).choice(
            np.flatnonzero(graph.out_degrees > 0), size=4, replace=False
        )
        reference = bc_oracle(graph, roots)
        assert np.abs(reference).max() > 0
        for framework_name in FRAMEWORK_NAMES:
            verify_bc(reference, get(framework_name).betweenness(graph, roots))


class TestTCVerifier:
    def test_accepts_correct(self, gap, triangle_graph):
        verify_tc(triangle_graph, 5)

    def test_rejects_wrong_count(self, triangle_graph):
        with pytest.raises(VerificationError):
            verify_tc(triangle_graph, 4)

    def test_directed_input_symmetrized(self, gap, corpus):
        graph = corpus["twitter"]
        count = gap.triangle_count(graph)
        verify_tc(graph, count)


class TestOracleMemo:
    """The memo saves oracle work; it neither skips a check nor leaks."""

    ORACLES = (
        "reference_bfs_depths", "sssp_oracle", "cc_oracle", "bc_oracle", "tc_oracle",
    )
    CHECKS = tuple(f"verify_{kernel}" for kernel in KERNELS)

    def test_one_oracle_per_input_one_check_per_cell(self, monkeypatch):
        """One graph's 72 cells inline: 5 oracle computations, 72 checks."""
        calls = collections.Counter()

        def counted(name):
            original = getattr(verify, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in self.ORACLES + self.CHECKS:
            monkeypatch.setattr(verify, name, counted(name))
        spec = BenchmarkSpec(scale=7, trials={kernel: 2 for kernel in KERNELS})
        results = run_suite(list(all_frameworks().values()), ["road"], spec=spec)
        assert len(results) == 72 and all(r.verified for r in results)
        assert {name: calls[name] for name in self.ORACLES} == dict.fromkeys(
            self.ORACLES, 1
        )
        assert {name: calls[name] for name in self.CHECKS} == dict.fromkeys(
            self.CHECKS, 12
        )

    @pytest.fixture
    def warm_case(self):
        """A case with every oracle in its memo."""
        case = GraphCase.build("road", scale=7)
        spec = BenchmarkSpec(scale=7, trials=dict.fromkeys(KERNELS, 1))
        for kernel in KERNELS:
            run_cell(get("gap"), kernel, case, Mode.BASELINE, spec)
        return case

    def test_memo_holds_read_only_o_n_answers(self, warm_case):
        assert sorted(kernel for kernel, _ in warm_case.oracles) == [
            "bc", "bfs", "cc", "sssp", "tc",
        ]
        n = warm_case.graph.num_vertices
        for (kernel, _), answer in warm_case.oracles.items():
            if kernel == "tc":
                assert isinstance(answer, int)
                continue
            assert answer.shape == (n,)
            assert not answer.flags.writeable
            with pytest.raises(ValueError):
                answer[0] = 0

    def test_memo_is_no_part_of_the_case(self, warm_case):
        fresh = GraphCase.build("road", scale=7)
        assert fresh.oracles == {}  # a rebuilt case starts empty
        assert warm_case.oracles is not fresh.oracles
        same_views = GraphCase(
            warm_case.name, warm_case.graph, warm_case.weighted, warm_case.undirected
        )
        assert same_views.oracles == {}
        assert same_views == warm_case and hash(same_views) == hash(warm_case)
        assert "oracles" not in repr(warm_case)
        assert repr(same_views) == repr(warm_case)

    def test_memo_does_not_cross_shared_memory(self, warm_case):
        owner = export_case(warm_case)
        try:
            attached = attach_case(owner.handle)
            try:
                assert attached.case.oracles == {}
                assert (attached.case.undirected is attached.case.graph) == (
                    warm_case.undirected is warm_case.graph
                )
                assert np.array_equal(
                    attached.case.weighted.weights, warm_case.weighted.weights
                )
            finally:
                attached.close()
        finally:
            owner.close()
