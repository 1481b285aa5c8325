"""Tests for the masked semiring products (vxm / mxv / mxm / reduce)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionMismatchError
from repro.graphs import CSRGraph
from repro.semiring import (
    ANY_SECONDI,
    MIN_PLUS,
    PLUS_PAIR,
    PLUS_SECOND,
    Matrix,
    Vector,
    mxm_masked,
    mxv,
    reduce_matrix,
    vxm,
)
from repro.semiring.ops import PLUS, BinaryOp, semiring

# Classic plus-times, built here: no kernel runs it, but it is the semiring
# whose products have a plain dense oracle.
PLUS_TIMES = semiring(PLUS, BinaryOp("times", lambda x, y, ix, iy: x * y))


def dense_reference_vxm(u, a, add, multiply, n):
    """Plain-Python oracle for w' = u' * A over a semiring."""
    out = {}
    for k, uv in u.items():
        for j, av in a.get(k, {}).items():
            z = multiply(uv, av, k)
            out[j] = add(out[j], z) if j in out else z
    return out


def graph_to_dict(graph):
    return {
        int(u): {int(v): 1.0 for v in graph.neighbors(u)}
        for u in graph.vertices()
    }


@pytest.fixture
def matrix(tiny_graph):
    return Matrix.from_graph(tiny_graph)


class TestVxm:
    def test_plus_times_matches_dense(self, tiny_graph, matrix):
        n = tiny_graph.num_vertices
        u = Vector.from_entries(n, np.array([0, 1]), np.array([2.0, 3.0]))
        w = vxm(u, matrix, PLUS_TIMES)
        oracle = dense_reference_vxm(
            {0: 2.0, 1: 3.0},
            graph_to_dict(tiny_graph),
            lambda a, b: a + b,
            lambda x, y, k: x * y,
            n,
        )
        assert dict(zip(w.indices().tolist(), w.entries()[1].tolist())) == oracle

    def test_min_plus(self, tiny_graph, matrix):
        n = tiny_graph.num_vertices
        u = Vector.from_entries(n, np.array([0]), np.array([5.0]))
        w = vxm(u, matrix, MIN_PLUS)
        # 0 -> 1 and 0 -> 2 with implicit weight 1.
        assert dict(zip(w.indices().tolist(), w.entries()[1].tolist())) == {
            1: 6.0,
            2: 6.0,
        }

    def test_any_secondi_returns_source_index(self, tiny_graph, matrix):
        n = tiny_graph.num_vertices
        u = Vector.from_entries(n, np.array([0]), np.array([0.0]))
        w = vxm(u, matrix, ANY_SECONDI)
        values = dict(zip(w.indices().tolist(), w.entries()[1].tolist()))
        assert values == {1: 0.0, 2: 0.0}  # parent is vertex 0

    def test_complement_mask(self, tiny_graph, matrix):
        n = tiny_graph.num_vertices
        u = Vector.from_entries(n, np.array([0]), np.array([0.0]))
        mask = Vector.from_entries(n, np.array([1]), np.array([1.0]))
        w = vxm(u, matrix, ANY_SECONDI, mask=mask, complement=True)
        assert w.indices().tolist() == [2]

    def test_plain_mask(self, tiny_graph, matrix):
        n = tiny_graph.num_vertices
        u = Vector.from_entries(n, np.array([0]), np.array([0.0]))
        mask = Vector.from_entries(n, np.array([1]), np.array([1.0]))
        w = vxm(u, matrix, ANY_SECONDI, mask=mask)
        assert w.indices().tolist() == [1]

    def test_empty_input(self, matrix):
        w = vxm(Vector.empty(matrix.nrows), matrix, PLUS_TIMES)
        assert w.nvals == 0

    def test_dimension_check(self, matrix):
        with pytest.raises(DimensionMismatchError):
            vxm(Vector.empty(matrix.nrows + 1), matrix, PLUS_TIMES)


class TestMxv:
    def test_pull_equals_push_on_transpose(self, tiny_graph, matrix):
        n = tiny_graph.num_vertices
        u = Vector.from_entries(n, np.array([0, 3]), np.array([1.0, 2.0]))
        push = vxm(u, matrix, PLUS_TIMES)
        pull = mxv(matrix.T, u, PLUS_TIMES)
        assert push.indices().tolist() == pull.indices().tolist()
        assert np.allclose(push.entries()[1], pull.entries()[1])

    def test_masked_pull_computes_only_masked_rows(self, tiny_graph, matrix):
        n = tiny_graph.num_vertices
        u = Vector.full(n, 1.0)
        mask = Vector.from_entries(n, np.array([2]), np.array([1.0]))
        w = mxv(matrix, u, PLUS_TIMES, mask=mask)
        assert w.indices().tolist() == [2]
        # row 2 has a single out-edge (2 -> 3).
        assert w.entries()[1].tolist() == [1.0]

    def test_dense_fast_path_matches_general(self, corpus):
        graph = corpus["kron"]
        matrix = Matrix.from_graph(graph)
        n = graph.num_vertices
        rng = np.random.default_rng(0)
        values = rng.random(n)
        dense = Vector.full(n, values)
        sparse = Vector.from_entries(n, np.arange(n), values)
        fast = mxv(matrix, dense, PLUS_SECOND)
        slow = mxv(matrix, sparse, PLUS_SECOND)
        assert np.allclose(fast.to_numpy(), slow.to_numpy())

    def test_dimension_check(self, matrix):
        with pytest.raises(DimensionMismatchError):
            mxv(matrix, Vector.empty(matrix.ncols + 1), PLUS_TIMES)


class TestMxm:
    def test_triangle_identity(self, triangle_graph):
        matrix = Matrix.from_graph(triangle_graph)
        lower = matrix.select_lower_triangle()
        upper = matrix.select_upper_triangle()
        closed = mxm_masked(lower, upper.T, PLUS_PAIR, mask=lower)
        # Triangle 0-1-2 plus the 4-clique 4..7 (4 triangles) = 5.
        assert int(reduce_matrix(closed)) == 5

    def test_plus_monoid_required(self, triangle_graph):
        matrix = Matrix.from_graph(triangle_graph)
        with pytest.raises(DimensionMismatchError):
            mxm_masked(matrix, matrix, MIN_PLUS, mask=matrix)

    def test_inner_dimension_check(self, triangle_graph, tiny_graph):
        a = Matrix.from_graph(triangle_graph)
        b = Matrix.from_graph(tiny_graph)
        with pytest.raises(DimensionMismatchError):
            mxm_masked(a, b, PLUS_PAIR, mask=a)


class TestAgainstScipy:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_vxm_plus_times_random(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        density = 0.3
        dense = (rng.random((n, n)) < density).astype(np.float64)
        np.fill_diagonal(dense, 0.0)
        src, dst = np.nonzero(dense)
        if src.size == 0:
            return
        graph = CSRGraph.from_arrays(n, src, dst)
        matrix = Matrix.from_graph(graph)
        values = rng.random(n)
        u = Vector.from_entries(n, np.arange(n), values)
        w = vxm(u, matrix, PLUS_TIMES)
        oracle = values @ dense
        assert np.allclose(w.to_numpy(), oracle)
