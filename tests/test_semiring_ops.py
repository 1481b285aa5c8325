"""Tests for repro.semiring.ops (monoids, binary ops, semirings)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidValueError
from repro.semiring.ops import (
    ANY,
    ANY_SECONDI,
    MIN,
    MIN_PLUS,
    PAIR,
    PLUS,
    PLUS_PAIR,
    SECOND,
    SECONDI,
    semiring,
)


class TestBinaryOps:
    def test_first_second(self):
        x = np.array([1.0, 2.0])
        y = np.array([3.0, 4.0])
        assert SECOND.apply(x, y).tolist() == [3.0, 4.0]

    def test_pair_is_one(self):
        x = np.array([9.0, 9.0])
        assert PAIR.apply(x, x).tolist() == [1, 1]

    def test_positional_ops(self):
        x = np.array([0.0, 0.0])
        ix = np.array([7, 8])
        iy = np.array([5, 6])
        assert SECONDI.apply(x, x, ix=ix, iy=iy).tolist() == [5, 6]

    def test_positional_requires_indices(self):
        with pytest.raises(InvalidValueError):
            SECONDI.apply(np.array([1.0]), np.array([1.0]))

    def test_positional_flag(self):
        assert SECONDI.positional
        assert not SECOND.positional


class TestMonoids:
    def test_segment_reduce_min(self):
        keys = np.array([2, 1, 2, 1])
        vals = np.array([5.0, 3.0, 1.0, 9.0])
        out_keys, out_vals = MIN.segment_reduce(keys, vals)
        assert out_keys.tolist() == [1, 2]
        assert out_vals.tolist() == [3.0, 1.0]

    def test_segment_reduce_plus(self):
        keys = np.array([0, 0, 1])
        vals = np.array([1.0, 2.0, 4.0])
        _, out_vals = PLUS.segment_reduce(keys, vals)
        assert out_vals.tolist() == [3.0, 4.0]

    def test_segment_reduce_any_takes_first(self):
        keys = np.array([3, 3, 3])
        vals = np.array([7.0, 8.0, 9.0])
        out_keys, out_vals = ANY.segment_reduce(keys, vals)
        assert out_keys.tolist() == [3]
        assert out_vals[0] == 7.0

    def test_segment_reduce_empty(self):
        keys = np.array([], dtype=np.int64)
        vals = np.array([])
        out_keys, out_vals = PLUS.segment_reduce(keys, vals)
        assert out_keys.size == 0 and out_vals.size == 0

    def test_accumulate_into_min(self):
        target = np.array([10.0, 10.0])
        MIN.accumulate_into(target, np.array([0, 0, 1]), np.array([3.0, 5.0, 2.0]))
        assert target.tolist() == [3.0, 2.0]

    def test_identity_values(self):
        assert MIN.identity == np.inf
        assert PLUS.identity == 0.0

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.floats(-100, 100)), min_size=1, max_size=50
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_segment_reduce_matches_python(self, items):
        keys = np.array([k for k, _ in items], dtype=np.int64)
        vals = np.array([v for _, v in items])
        out_keys, out_vals = MIN.segment_reduce(keys, vals)
        expected = {}
        for k, v in items:
            expected[k] = min(expected.get(k, np.inf), v)
        assert out_keys.tolist() == sorted(expected)
        for k, v in zip(out_keys.tolist(), out_vals.tolist()):
            assert v == expected[k]


class TestSemirings:
    def test_names(self):
        assert MIN_PLUS.name == "min_plus"
        assert ANY_SECONDI.name == "any_secondi"
        assert PLUS_PAIR.name == "plus_pair"

    def test_constructor(self):
        sr = semiring(MIN, SECOND)
        assert sr.add is MIN and sr.multiply is SECOND
