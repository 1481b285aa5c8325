"""Tests for repro.semiring.vector (sparse/dense vectors with masks)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import counters
from repro.errors import DimensionMismatchError, InvalidValueError
from repro.semiring import Vector


def sparse_vectors(n=16):
    return st.lists(
        st.tuples(st.integers(0, n - 1), st.floats(-50, 50)), max_size=n
    ).map(
        lambda items: Vector.from_entries(
            n,
            np.array(sorted({k for k, _ in items}), dtype=np.int64),
            np.array([dict(items)[k] for k in sorted({k for k, _ in items})]),
        )
    )


class TestConstruction:
    def test_from_entries_sorts(self):
        v = Vector.from_entries(5, np.array([3, 1]), np.array([30.0, 10.0]))
        assert v.indices().tolist() == [1, 3]
        assert v.values_at(np.array([1, 3])).tolist() == [10.0, 30.0]

    def test_duplicate_indices_rejected(self):
        with pytest.raises(InvalidValueError):
            Vector.from_entries(5, np.array([1, 1]), np.array([1.0, 2.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Vector.from_entries(5, np.array([1]), np.array([1.0, 2.0]))

    def test_full(self):
        v = Vector.full(4, 2.5)
        assert v.nvals == 4
        assert v.to_numpy().tolist() == [2.5] * 4

    def test_empty(self):
        assert Vector.empty(3).nvals == 0


class TestFormats:
    def test_roundtrip_preserves_entries(self):
        v = Vector.from_entries(6, np.array([1, 4]), np.array([7.0, 8.0]))
        v.to_dense()
        assert v.mode == "dense"
        assert v.nvals == 2
        v.to_sparse()
        assert v.mode == "sparse"
        assert v.indices().tolist() == [1, 4]

    def test_conversion_is_counted(self):
        v = Vector.from_entries(6, np.array([1]), np.array([1.0]))
        with counters.counting() as work:
            v.to_dense()
            v.to_sparse()
        assert work.extras.get("format_conversions") == 2

    def test_noop_conversion_not_counted(self):
        v = Vector.from_entries(6, np.array([1]), np.array([1.0]))
        with counters.counting() as work:
            v.to_sparse()
        assert "format_conversions" not in work.extras

    def test_contains_both_modes(self):
        v = Vector.from_entries(6, np.array([1, 4]), np.array([1.0, 2.0]))
        for _ in range(2):
            hits = v.contains(np.array([0, 1, 4, 5]))
            assert hits.tolist() == [False, True, True, False]
            v.to_dense()

    def test_contains_empty_vector(self):
        v = Vector.empty(4)
        assert v.contains(np.array([0, 1])).tolist() == [False, False]


class TestOps:
    def test_assign_vector_overwrites(self):
        v = Vector.from_entries(4, np.array([0]), np.array([1.0]))
        u = Vector.from_entries(4, np.array([0, 2]), np.array([9.0, 8.0]))
        v.assign_vector(u)
        assert v.values_at(np.array([0]))[0] == 9.0
        assert v.nvals == 2

    def test_assign_vector_masked(self):
        v = Vector.empty(4)
        u = Vector.from_entries(4, np.array([0, 2]), np.array([9.0, 8.0]))
        mask = Vector.from_entries(4, np.array([2]), np.array([1.0]))
        v.assign_vector(u, mask=mask)
        assert v.indices().tolist() == [2]

    def test_assign_into_dense(self):
        v = Vector.full(4, 0.0)
        u = Vector.from_entries(4, np.array([1]), np.array([5.0]))
        v.assign_vector(u)
        assert v.to_numpy().tolist() == [0.0, 5.0, 0.0, 0.0]

    def test_dimension_mismatch(self):
        v = Vector.empty(4)
        with pytest.raises(DimensionMismatchError):
            v.assign_vector(Vector.empty(5))

    @given(sparse_vectors())
    @settings(max_examples=30, deadline=None)
    def test_to_numpy_roundtrip(self, v):
        dense = v.to_numpy(fill=0.0)
        idx = v.indices()
        rebuilt = Vector.from_entries(v.n, idx, dense[idx])
        assert rebuilt.indices().tolist() == idx.tolist()

    @given(sparse_vectors())
    @settings(max_examples=30, deadline=None)
    def test_format_conversion_invariant(self, v):
        before = dict(zip(v.indices().tolist(), v.entries()[1].tolist()))
        v.to_dense()
        v.to_sparse()
        after = dict(zip(v.indices().tolist(), v.entries()[1].tolist()))
        assert before == after
