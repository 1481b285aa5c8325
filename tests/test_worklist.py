"""Tests for the Galois-style worklist substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.worklist import OrderedByIntegerMetric, for_each_eager
from repro.worklist.worklists import ChunkedWorklist


class TestChunkedWorklist:
    def test_push_pop(self):
        wl = ChunkedWorklist(chunk_size=4)
        wl.push(np.array([1, 2, 3]))
        chunk = wl.pop()
        assert chunk.tolist() == [1, 2, 3]
        assert wl.pop() is None

    def test_large_push_is_split(self):
        wl = ChunkedWorklist(chunk_size=2)
        wl.push(np.arange(5))
        sizes = []
        while (chunk := wl.pop()) is not None:
            sizes.append(chunk.size)
        assert sum(sizes) == 5
        assert max(sizes) <= 2 + 2  # pop may merge up to one extra chunk

    def test_small_pushes_coalesce_on_pop(self):
        wl = ChunkedWorklist(chunk_size=100)
        for i in range(10):
            wl.push(np.array([i]))
        chunk = wl.pop()
        assert chunk.size == 10

    def test_empty_push_ignored(self):
        wl = ChunkedWorklist()
        wl.push(np.empty(0, dtype=np.int64))
        assert not wl


class TestOBIM:
    def test_priority_order(self):
        obim = OrderedByIntegerMetric()
        obim.push(np.array([10]), np.array([2]))
        obim.push(np.array([20]), np.array([0]))
        obim.push(np.array([30]), np.array([1]))
        order = []
        while (popped := obim.pop_chunk()) is not None:
            order.append(popped[0])
        assert order == [0, 1, 2]

    def test_same_priority_grouped(self):
        obim = OrderedByIntegerMetric()
        obim.push(np.array([1, 2, 3]), np.array([4, 4, 9]))
        priority, chunk = obim.pop_chunk()
        assert priority == 4
        assert sorted(chunk.tolist()) == [1, 2]

    def test_empty(self):
        obim = OrderedByIntegerMetric()
        assert obim.current_priority() is None
        assert obim.pop_chunk() is None
        assert not obim

    @given(
        st.lists(
            st.tuples(st.integers(0, 100), st.integers(0, 9)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_pops_never_decrease_below_prior_min(self, items):
        """Priorities pop in non-decreasing order when nothing new is pushed."""
        obim = OrderedByIntegerMetric()
        vertices = np.array([v for v, _ in items], dtype=np.int64)
        priorities = np.array([p for _, p in items], dtype=np.int64)
        obim.push(vertices, priorities)
        seen = []
        while (popped := obim.pop_chunk()) is not None:
            seen.append(popped[0])
        assert seen == sorted(seen)


class TestExecutors:
    def test_eager_executor_processes_pushes(self):
        visited = []

        def operator(chunk):
            visited.extend(chunk.tolist())
            if len(visited) < 4:
                return np.array([len(visited) + 10])
            return np.empty(0, dtype=np.int64)

        chunks = for_each_eager(np.array([0]), operator, chunk_size=1)
        assert chunks == 4
        assert visited == [0, 11, 12, 13]

    def test_eager_executor_empty_initial(self):
        assert for_each_eager(np.empty(0, dtype=np.int64), lambda c: c) == 0
