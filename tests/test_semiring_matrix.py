"""Tests for repro.semiring.matrix."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import DimensionMismatchError
from repro.semiring import Matrix


def row(matrix, i):
    """Column indices of row ``i``."""
    return matrix.indices[matrix.indptr[i]: matrix.indptr[i + 1]]


@pytest.fixture
def small_matrix(tiny_graph):
    return Matrix.from_graph(tiny_graph)


class TestConstruction:
    def test_from_graph_shape(self, tiny_graph, small_matrix):
        assert small_matrix.nrows == small_matrix.ncols == tiny_graph.num_vertices
        assert small_matrix.nvals == tiny_graph.num_edges

    def test_iso_when_unweighted(self, small_matrix):
        assert small_matrix.iso
        assert (small_matrix.value_array() == 1.0).all()

    def test_weighted_values(self):
        from repro.generators import build_graph, weighted_version

        g = weighted_version(build_graph("kron", scale=6))
        m = Matrix.from_graph(g, use_weights=True)
        assert not m.iso
        assert np.array_equal(m.values, g.weights.astype(np.float64))

    def test_transpose_prelinked(self, tiny_graph, small_matrix):
        t = small_matrix.T
        assert t.nvals == small_matrix.nvals
        # edge 0->1 exists, so T has 1->0.
        assert 0 in row(t, 1).tolist()
        assert t.T is small_matrix

    def test_from_scipy(self):
        s = sp.csr_matrix(np.array([[0, 2.0], [3.0, 0]]))
        m = Matrix.from_scipy(s)
        assert m.nvals == 2
        assert row(m, 0).tolist() == [1]

    def test_bad_indptr(self):
        with pytest.raises(DimensionMismatchError):
            Matrix(2, 2, np.array([0, 0]), np.empty(0, dtype=np.int64))


class TestSelections:
    def test_triangles_partition_symmetric_matrix(self, triangle_graph):
        m = Matrix.from_graph(triangle_graph)
        lower = m.select_lower_triangle()
        upper = m.select_upper_triangle()
        assert lower.nvals + upper.nvals == m.nvals
        assert lower.nvals == upper.nvals  # symmetry

    def test_lower_strictly_below_diagonal(self, triangle_graph):
        lower = Matrix.from_graph(triangle_graph).select_lower_triangle()
        rows = np.repeat(np.arange(lower.nrows), lower.row_degrees())
        assert (lower.indices < rows).all()

    def test_permuted_preserves_nvals(self, triangle_graph):
        m = Matrix.from_graph(triangle_graph)
        perm = np.arange(m.nrows)[::-1].copy()
        p = m.permuted(perm)
        assert p.nvals == m.nvals

    def test_permuted_moves_edges(self, small_matrix):
        n = small_matrix.nrows
        perm = (np.arange(n) + 1) % n  # shift
        p = small_matrix.permuted(perm)
        # edge 0->1 becomes 1->2
        assert 2 in row(p, 1).tolist()

    def test_to_scipy_matches(self, small_matrix, tiny_graph):
        s = small_matrix.to_scipy()
        assert s.nnz == tiny_graph.num_edges
        assert s[0, 1] == 1.0
