"""Unit tests for the GAP reference implementation's building blocks."""

import numpy as np
import pytest

from repro.core import counters
from repro.gapbs.bfs import direction_optimizing_bfs
from repro.gapbs.sssp import delta_stepping
from repro.gapbs.tc import forward_adjacency, ordered_count, worth_relabelling
from repro.graphs import CSRGraph
from repro.la.direction import pull_step, push_step
from repro.la.sweep import brandes_backward, brandes_forward
from tests.reference.la_oracle import segment_sums


class TestBFSSteps:
    """The two steps of the shared traversal (``repro.la.direction``)."""

    def test_push_step_claims_targets(self, tiny_graph):
        parents = np.full(7, -1, dtype=np.int64)
        parents[0] = 0
        frontier, examined = push_step(
            tiny_graph.indptr, tiny_graph.indices, np.array([0]), parents
        )
        assert sorted(frontier.tolist()) == [1, 2]
        assert parents[1] == 0 and parents[2] == 0
        assert examined == tiny_graph.out_degree(0)

    def test_push_step_first_writer_wins(self, tiny_graph):
        # 0 and 1 both point at 2; the first edge in expansion order wins.
        parents = np.full(7, -1, dtype=np.int64)
        parents[0] = 0
        parents[1] = 1
        push_step(tiny_graph.indptr, tiny_graph.indices, np.array([0, 1]), parents)
        assert parents[2] in (0, 1)

    def test_push_step_ignores_visited(self, tiny_graph):
        parents = np.full(7, -1, dtype=np.int64)
        parents[[0, 1, 2]] = [0, 0, 0]
        frontier, _ = push_step(tiny_graph.indptr, tiny_graph.indices, np.array([1]), parents)
        assert frontier.size == 0  # 1 -> 2 already claimed

    def test_pull_step_finds_parents(self, tiny_graph):
        parents = np.full(7, -1, dtype=np.int64)
        parents[0] = 0
        frontier, _ = pull_step(
            tiny_graph.in_indptr, tiny_graph.in_indices, np.array([0]), parents
        )
        assert sorted(frontier.tolist()) == [1, 2]

    def test_full_bfs_counts_direction_switches(self, corpus):
        graph = corpus["kron"]
        source = int(np.argmax(graph.out_degrees))
        with counters.counting() as work:
            direction_optimizing_bfs(graph, source)
        assert work.extras.get("direction_switches", 0) >= 1


class TestSegmentSums:
    """The row-sum helper of the prefix-sum Gauss-Seidel oracle."""

    def test_basic(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        indptr = np.array([0, 2, 2, 4])
        assert segment_sums(values, indptr).tolist() == [3.0, 0.0, 7.0]

    def test_empty(self):
        assert segment_sums(np.array([]), np.array([0, 0])).tolist() == [0.0]


class TestDeltaStepping:
    def test_unreachable_inf(self, weighted_corpus):
        graph = weighted_corpus["road"]
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        dist = delta_stepping(graph, source, delta=64)
        # Road has multiple components, so some distance must be inf.
        assert np.isinf(dist).any()

    def test_fusion_does_not_change_result(self, weighted_corpus):
        graph = weighted_corpus["web"]
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        fused = delta_stepping(graph, source, delta=32, bucket_fusion=True)
        plain = delta_stepping(graph, source, delta=32, bucket_fusion=False)
        assert np.array_equal(
            np.nan_to_num(fused, posinf=-1.0), np.nan_to_num(plain, posinf=-1.0)
        )

    def test_zero_distance_source_only(self, weighted_corpus):
        graph = weighted_corpus["kron"]
        source = int(np.flatnonzero(graph.out_degrees > 0)[0])
        dist = delta_stepping(graph, source, delta=16)
        # Weights are >= 1, so only the source sits at distance 0.
        assert np.flatnonzero(dist == 0.0).tolist() == [source]


class TestBrandesPieces:
    """GAP's BC is the saved-successors flavour of ``repro.la.sweep``."""

    # Diamond: 0->1, 0->2, 1->3, 2->3.
    DIAMOND = (4, np.array([0, 0, 1, 2]), np.array([1, 2, 3, 3]))

    def test_forward_sigma_counts_paths(self):
        graph = CSRGraph.from_arrays(*self.DIAMOND)
        depth, sigma, levels, dag, examined = brandes_forward(
            graph.indptr, graph.indices, np.array([0]), save_successors=True
        )
        assert sigma[3] == 2.0
        assert depth[3] == 2
        assert len(levels) == len(dag) == 3
        assert examined == graph.num_edges

    def test_backward_splits_dependency(self):
        graph = CSRGraph.from_arrays(*self.DIAMOND)
        roots = np.array([0])
        depth, sigma, levels, dag, _ = brandes_forward(
            graph.indptr, graph.indices, roots, save_successors=True
        )
        scores, examined, eccentricities = brandes_backward(
            graph.indptr, graph.indices, roots, depth, sigma, levels, dag
        )
        # 1 and 2 each carry half of the single dependency on 3.
        assert scores[1] == pytest.approx(0.5)
        assert scores[2] == pytest.approx(0.5)
        assert scores[0] == 0.0
        assert examined == 4 and eccentricities.tolist() == [2]


class TestTCPieces:
    def test_forward_adjacency_strictly_increasing(self, triangle_graph):
        indptr, indices = forward_adjacency(triangle_graph)
        rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        assert (indices > rows).all()

    def test_ordered_count_triangle(self, triangle_graph):
        indptr, indices = forward_adjacency(triangle_graph)
        assert ordered_count(indptr, indices) == 5

    def test_worth_relabelling_detects_skew(self, corpus):
        assert worth_relabelling(corpus["kron"])
        assert not worth_relabelling(corpus["urand"])
        assert not worth_relabelling(corpus["road"])
