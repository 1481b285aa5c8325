"""Policy-level tests for the GraphIt engine: direction decisions & tiling."""

import numpy as np

from repro import counters
from repro.graphitc import (
    Direction,
    FrontierLayout,
    Schedule,
    SegmentedEdges,
    VertexSet,
    edgeset_apply_from,
)


def _noop(srcs, dsts, weights):
    return np.zeros(dsts.size, dtype=bool)


class TestHybridDecision:
    def test_small_frontier_pushes(self, corpus):
        """A single low-degree vertex must take the sparse push path,
        observable as the frontier *not* being converted to a bitvector."""
        graph = corpus["kron"]
        low_degree = int(np.flatnonzero(graph.out_degrees == 1)[0])
        frontier = VertexSet.from_ids(graph.num_vertices, np.array([low_degree]))
        with counters.counting() as work:
            edgeset_apply_from(graph, frontier, _noop, Schedule())
        assert "frontier_conversions" not in work.extras

    def test_heavy_frontier_pulls(self, corpus):
        """A frontier holding most of the edge volume must pull: the sparse
        input converts to a bitvector and the engine scans in-edges."""
        graph = corpus["kron"]
        frontier = VertexSet.from_ids(
            graph.num_vertices, np.arange(graph.num_vertices)
        )
        with counters.counting() as work:
            edgeset_apply_from(graph, frontier, _noop, Schedule())
        assert work.extras.get("frontier_conversions", 0) == 1

    def test_pull_with_filter_scans_fewer_edges(self, corpus):
        """The masked pull only expands in-edges of filter-passing rows."""
        graph = corpus["kron"]
        frontier = VertexSet.from_ids(
            graph.num_vertices, np.arange(graph.num_vertices)
        )
        schedule = Schedule(
            direction=Direction.DENSE_PULL, frontier=FrontierLayout.BITVECTOR
        )
        nothing = np.zeros(graph.num_vertices, dtype=bool)
        nothing[:8] = True
        with counters.counting() as narrow:
            edgeset_apply_from(graph, frontier, _noop, schedule, to_filter=nothing)
        with counters.counting() as wide:
            edgeset_apply_from(graph, frontier, _noop, schedule)
        assert narrow.edges_examined < wide.edges_examined


class TestSegmentedEdges:
    def test_partition_is_complete(self, corpus):
        graph = corpus["kron"]
        tiled = SegmentedEdges(graph, num_segments=4)
        total = sum(src.size for src, _ in tiled.segments)
        assert total == graph.num_edges == tiled.num_edges

    def test_segments_are_source_ranges(self, corpus):
        graph = corpus["kron"]
        tiled = SegmentedEdges(graph, num_segments=4)
        previous_max = -1
        for sources, _ in tiled.segments:
            assert sources.min() > previous_max
            previous_max = int(sources.max())

    def test_apply_visits_all_edges(self, corpus):
        graph = corpus["kron"]
        tiled = SegmentedEdges(graph, num_segments=4)
        seen = {"count": 0}

        def count(srcs, dsts, weights):
            seen["count"] += srcs.size
            return np.zeros(dsts.size, dtype=bool)

        tiled.apply(count)
        assert seen["count"] == graph.num_edges

    def test_pull_orientation_pairs(self, tiny_graph):
        """In pull mode, (source, target) must still mean source -> target."""
        tiled = SegmentedEdges(tiny_graph, num_segments=2)
        for sources, targets in tiled.segments:
            for u, v in zip(sources.tolist(), targets.tolist()):
                assert tiny_graph.has_edge(u, v)


class TestLagraphBFSDirectionSwitch:
    def test_pull_used_on_dense_frontier(self, corpus):
        """LAGraph's BFS must take the masked-mxv (pull) path at the hub,
        visible as sparse->dense frontier conversions."""
        from repro.lagraph import lagraph_bfs

        graph = corpus["kron"]
        hub = int(np.argmax(graph.out_degrees))
        with counters.counting() as work:
            lagraph_bfs(graph, hub)
        assert work.extras.get("format_conversions", 0) >= 1
