"""Tests for the GraphIt-style DSL substrate (schedules, vertexsets, engine)."""

import numpy as np
import pytest

from repro import counters
from repro.errors import SchedulingError
from repro.graphitc import (
    BucketPriorityQueue,
    Direction,
    FrontierLayout,
    Schedule,
    VertexSet,
    edgeset_apply_all,
    edgeset_apply_from,
)


class TestSchedule:
    def test_defaults(self):
        s = Schedule()
        assert s.direction is Direction.DENSE_PULL_SPARSE_PUSH
        assert s.deduplicate

    def test_with_builder(self):
        s = Schedule().with_(num_segments=4)
        assert s.num_segments == 4
        assert Schedule().num_segments == 0  # original untouched

    def test_invalid_pull_sparse(self):
        with pytest.raises(SchedulingError):
            Schedule(direction=Direction.DENSE_PULL, frontier=FrontierLayout.SPARSE_ARRAY)

    def test_pull_with_bitvector_ok(self):
        Schedule(direction=Direction.DENSE_PULL, frontier=FrontierLayout.BITVECTOR)

    def test_negative_segments_rejected(self):
        with pytest.raises(SchedulingError):
            Schedule(num_segments=-1)

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(SchedulingError):
            Schedule(delta=0)


class TestVertexSet:
    def test_sparse_basics(self):
        vs = VertexSet.from_ids(10, np.array([3, 1, 3]))
        assert vs.size() == 2
        assert vs.ids().tolist() == [1, 3]

    def test_bitvector_basics(self):
        vs = VertexSet.from_ids(10, np.array([5]), FrontierLayout.BITVECTOR)
        assert vs.size() == 1
        assert vs.contains(np.array([5, 6])).tolist() == [True, False]

    def test_layout_conversion_counted(self):
        vs = VertexSet.from_ids(10, np.array([2]))
        with counters.counting() as work:
            vs.to_layout(FrontierLayout.BITVECTOR)
        assert work.extras.get("frontier_conversions") == 1

    def test_noop_conversion_free(self):
        vs = VertexSet.from_ids(10, np.array([2]))
        with counters.counting() as work:
            assert vs.to_layout(FrontierLayout.SPARSE_ARRAY) is vs
        assert "frontier_conversions" not in work.extras

    def test_bool(self):
        assert not VertexSet(4)
        assert VertexSet.from_ids(4, np.array([0]))

    def test_contains_empty_sparse(self):
        vs = VertexSet(4)
        assert vs.contains(np.array([1])).tolist() == [False]


class TestEngine:
    def _collect_edges(self, graph, frontier_ids, schedule, to_filter=None):
        seen = []

        def record(srcs, dsts, weights):
            seen.extend(zip(srcs.tolist(), dsts.tolist()))
            return np.ones(dsts.size, dtype=bool)

        frontier = VertexSet.from_ids(
            graph.num_vertices, np.array(frontier_ids), schedule.frontier
        )
        out = edgeset_apply_from(graph, frontier, record, schedule, to_filter)
        return sorted(set(seen)), out

    def test_push_and_pull_see_same_edges(self, tiny_graph):
        push = Schedule(direction=Direction.SPARSE_PUSH)
        pull = Schedule(
            direction=Direction.DENSE_PULL, frontier=FrontierLayout.BITVECTOR
        )
        edges_push, _ = self._collect_edges(tiny_graph, [0, 1], push)
        edges_pull, _ = self._collect_edges(tiny_graph, [0, 1], pull)
        assert edges_push == edges_pull == [(0, 1), (0, 2), (1, 2)]

    def test_to_filter_restricts_destinations(self, tiny_graph):
        schedule = Schedule(direction=Direction.SPARSE_PUSH)
        allowed = np.zeros(tiny_graph.num_vertices, dtype=bool)
        allowed[2] = True
        edges, _ = self._collect_edges(tiny_graph, [0, 1], schedule, allowed)
        assert edges == [(0, 2), (1, 2)]

    def test_output_frontier_layout_follows_schedule(self, tiny_graph):
        schedule = Schedule(
            direction=Direction.SPARSE_PUSH, frontier=FrontierLayout.BITVECTOR
        )
        _, out = self._collect_edges(tiny_graph, [0], schedule)
        assert out.layout is FrontierLayout.BITVECTOR

    def test_deduplicate(self, tiny_graph):
        # 0 and 1 both reach 2; with dedup the output frontier has 2 once.
        schedule = Schedule(direction=Direction.SPARSE_PUSH, deduplicate=True)
        _, out = self._collect_edges(tiny_graph, [0, 1], schedule)
        assert out.ids().tolist() == [1, 2]

    def test_apply_all_visits_every_edge(self, tiny_graph):
        total = {"count": 0}

        def count(srcs, dsts, weights):
            total["count"] += srcs.size
            return np.zeros(dsts.size, dtype=bool)

        edgeset_apply_all(tiny_graph, count, Schedule(), pull=True)
        assert total["count"] == tiny_graph.num_edges

    def test_apply_all_segmented_visits_every_edge(self, corpus):
        graph = corpus["kron"]
        total = {"count": 0}

        def count(srcs, dsts, weights):
            total["count"] += srcs.size
            return np.zeros(dsts.size, dtype=bool)

        with counters.counting() as work:
            edgeset_apply_all(graph, count, Schedule(num_segments=4), pull=True)
        assert total["count"] == graph.num_edges
        assert work.extras.get("cache_segments", 0) >= 2

    def test_apply_all_push_pull_orientation(self, tiny_graph):
        pairs_pull = []
        pairs_push = []

        def rec_pull(srcs, dsts, weights):
            pairs_pull.extend(zip(srcs.tolist(), dsts.tolist()))
            return np.zeros(dsts.size, dtype=bool)

        def rec_push(srcs, dsts, weights):
            pairs_push.extend(zip(srcs.tolist(), dsts.tolist()))
            return np.zeros(dsts.size, dtype=bool)

        edgeset_apply_all(tiny_graph, rec_pull, Schedule(), pull=True)
        edgeset_apply_all(tiny_graph, rec_push, Schedule(), pull=False)
        assert sorted(pairs_pull) == sorted(pairs_push)


class TestBuckets:
    def test_priority_order(self):
        q = BucketPriorityQueue()
        q.push(np.array([4]), np.array([1]))
        q.push(np.array([5]), np.array([0]))
        priority, members = q.pop_lowest()
        assert priority == 0 and members.tolist() == [5]

    def test_fusion_reduces_rounds(self):
        """Same workload, fused vs unfused: fusion must save rounds."""

        def run(fusion):
            dist = np.array([0.0, np.inf, np.inf, np.inf])
            chain = {0: 1, 1: 2, 2: 3}

            def relax(members):
                improved = []
                for m in members.tolist():
                    nxt = chain.get(m)
                    if nxt is not None and dist[nxt] > dist[m] + 1:
                        dist[nxt] = dist[m] + 1
                        improved.append(nxt)
                return np.array(improved, dtype=np.int64)

            q = BucketPriorityQueue(fusion=fusion)
            q.push(np.array([0]), np.array([0]))
            with counters.counting() as work:
                q.process(relax, dist, delta=100)  # whole chain in one bucket
            return dist.copy(), work

        fused_dist, fused_work = run(True)
        plain_dist, plain_work = run(False)
        assert np.array_equal(fused_dist, plain_dist)
        assert fused_work.rounds < plain_work.rounds
        assert fused_work.extras.get("fused_rounds", 0) > 0
