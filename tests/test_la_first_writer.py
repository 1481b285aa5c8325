"""Property tests for the shared first-writer-wins idiom.

Before the substrate, five frameworks each carried their own copy of::

    fresh, first = np.unique(targets, return_index=True)
    state[fresh] = values[first]

``repro.la.frontier`` centralizes it with a sort-free formulation
(reversed fancy assignment); the original lives on as the oracle in
``tests/reference/la_oracle.py``.  These tests drive both with adversarial
duplicate orderings — the exact situations where last-writer-wins
semantics would silently produce a *valid-looking* but different parent
tree — and require bit-identical results.
"""

import numpy as np
import pytest

from repro.la import (
    claim_first_writer,
    first_occurrence_mask,
    relax_minimum,
    unique_ids,
)
from tests.reference import la_oracle

N = 64


def _engines(primitive, *args):
    """Run ``primitive``, then its oracle, on fresh copies of mutable args."""
    results = []
    for fn in (primitive, getattr(la_oracle, primitive.__name__)):
        copied = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
        results.append((fn(*copied), copied))
    return results


ADVERSARIAL_KEYS = [
    np.array([3, 3, 3, 3], dtype=np.int64),               # one key, all dupes
    np.array([5, 4, 3, 2, 1, 0], dtype=np.int64),         # reverse sorted
    np.array([0, 1, 0, 1, 0, 1], dtype=np.int64),         # interleaved
    np.array([7, 2, 7, 2, 9, 7, 2, 9], dtype=np.int64),   # repeated clusters
    np.array([N - 1, 0, N - 1, 0], dtype=np.int64),       # extremes
]


class TestClaimFirstWriter:
    @pytest.mark.parametrize("keys", ADVERSARIAL_KEYS)
    def test_first_value_wins(self, keys):
        values = np.arange(keys.size, dtype=np.int64) + 100
        for out, (state, *_rest) in _engines(
            claim_first_writer, np.full(N, -1, dtype=np.int64), keys, values, N
        ):
            for key in np.unique(keys):
                first = int(np.flatnonzero(keys == key)[0])
                assert state[key] == values[first], (key, state[key])

    @pytest.mark.parametrize("seed", range(8))
    def test_engines_identical_on_random_batches(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, N, size=rng.integers(1, 4 * N))
        values = rng.integers(0, 1000, size=keys.size)
        (fresh_o, (state_o, *_)), (fresh_r, (state_r, *_)) = _engines(
            claim_first_writer, np.full(N, -1, dtype=np.int64), keys, values, N
        )
        np.testing.assert_array_equal(fresh_o, fresh_r)
        np.testing.assert_array_equal(state_o, state_r)

    def test_returns_sorted_unique_written_keys(self):
        state = np.full(N, -1, dtype=np.int64)
        keys = np.array([9, 1, 9, 5, 1], dtype=np.int64)
        fresh = claim_first_writer(state, keys, keys * 10, N)
        np.testing.assert_array_equal(fresh, [1, 5, 9])

    def test_empty(self):
        state = np.full(N, -1, dtype=np.int64)
        out = claim_first_writer(
            state, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), N
        )
        assert out.size == 0
        assert np.all(state == -1)


class TestFirstOccurrenceMask:
    @pytest.mark.parametrize("keys", ADVERSARIAL_KEYS)
    def test_marks_exactly_first_occurrences(self, keys):
        for out, _args in _engines(first_occurrence_mask, keys, N):
            expected = np.zeros(keys.size, dtype=bool)
            _, first = np.unique(keys, return_index=True)
            expected[first] = True
            np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_engines_identical_on_random_batches(self, seed):
        rng = np.random.default_rng(100 + seed)
        keys = rng.integers(0, N, size=rng.integers(1, 4 * N))
        (mask_o, _), (mask_r, _) = _engines(first_occurrence_mask, keys, N)
        np.testing.assert_array_equal(mask_o, mask_r)

    def test_empty(self):
        assert first_occurrence_mask(np.empty(0, dtype=np.int64), N).size == 0


class TestUniqueIds:
    @pytest.mark.parametrize("keys", ADVERSARIAL_KEYS)
    def test_matches_np_unique(self, keys):
        for out, _args in _engines(unique_ids, keys, N):
            np.testing.assert_array_equal(out, np.unique(keys))

    def test_empty(self):
        assert unique_ids(np.empty(0, dtype=np.int64), N).size == 0


class TestRelaxMinimum:
    @pytest.mark.parametrize("seed", range(4))
    def test_engines_identical(self, seed):
        rng = np.random.default_rng(200 + seed)
        targets = rng.integers(0, N, size=96)
        candidates = rng.random(96) * 10
        # relax_minimum has no pre-port twin of its own (it is unique_ids
        # under np.minimum.at): judge it against the per-target definition.
        dist = np.full(N, np.inf)
        improved = relax_minimum(dist, targets, candidates, N)
        expected = np.full(N, np.inf)
        for target in np.unique(targets):
            expected[target] = candidates[targets == target].min()
        np.testing.assert_array_equal(improved, np.unique(targets))
        np.testing.assert_array_equal(dist, expected)

    def test_keeps_minimum_per_target(self):
        dist = np.full(N, np.inf)
        targets = np.array([4, 4, 4], dtype=np.int64)
        candidates = np.array([3.0, 1.0, 2.0])
        improved = relax_minimum(dist, targets, candidates, N)
        np.testing.assert_array_equal(improved, [4])
        assert dist[4] == 1.0
