"""The multi-root Brandes sweep against its oracle, one root at a time.

``repro.la.sweep`` advances every root of a trial one level per step over
lifted ids ``r * n + v``; the oracle in ``tests/reference/la_oracle.py`` is
the per-root loops the frameworks ran before (GAP's forward pass and
saved-successor replay, Galois' re-expanding backward pass).  The contract
is exact: scores **bitwise** equal, ``examined`` equal, per-root
eccentricities equal — for both backward flavours, for roots that run out
at different depths, and however the group budget cuts a level.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.la import sweep
from tests.reference import la_oracle

FLAVOURS = pytest.mark.parametrize("saved_successors", [True, False], ids=["saved", "reexpand"])


def csr(num_vertices, edges, dtype=np.int64):
    """CSR arrays of a directed edge list (edge order kept within a row)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    order = np.argsort(edges[:, 0], kind="stable")
    indptr = np.zeros(num_vertices + 1, dtype=dtype)
    indptr[1:] = np.cumsum(np.bincount(edges[:, 0], minlength=num_vertices))
    return indptr, edges[order, 1].astype(dtype)


def assert_matches_oracle(indptr, indices, roots, saved_successors):
    roots = np.asarray(roots, dtype=np.int64)
    scores, examined, eccentricities = sweep.brandes_sweep(
        indptr, indices, roots, saved_successors
    )
    ref_scores, ref_examined, ref_eccentricities = la_oracle.brandes_sweep(
        indptr, indices, roots, saved_successors
    )
    assert scores.tobytes() == ref_scores.tobytes()
    assert examined == ref_examined
    assert eccentricities.tolist() == ref_eccentricities.tolist()

    # The backward pass alone, as galois_bc_async calls it.
    depth, sigma, levels, successors, _ = sweep.brandes_forward(
        indptr, indices, roots, save_successors=saved_successors
    )
    state = (indptr, indices, roots, depth, sigma, levels)
    replayed = successors if saved_successors else None
    ours = sweep.brandes_backward(*state, replayed)
    theirs = la_oracle.brandes_backward(*state, replayed)
    assert ours[0].tobytes() == theirs[0].tobytes() == scores.tobytes()
    assert ours[1] == theirs[1]
    assert ours[2].tolist() == theirs[2].tolist() == eccentricities.tolist()


# A path 0 -> 1 -> ... -> 5 with a shortcut, a diamond hanging off it, a
# vertex (8) nothing reaches and a vertex (9) with no edges at all.
PATH_AND_DIAMOND = (
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2), (2, 6), (2, 7), (6, 5), (7, 5), (8, 0)],
)


@FLAVOURS
class TestNamedCases:
    def test_roots_of_unequal_eccentricity(self, saved_successors):
        """Roots run out at depths 3, 2, 1 and 0: the deeper ones go on alone,
        and no root's deepest level is expanded again on the way back."""
        indptr, indices = csr(*PATH_AND_DIAMOND)
        assert_matches_oracle(indptr, indices, [0, 2, 4, 5], saved_successors)

    def test_single_vertex_component_and_unreachable(self, saved_successors):
        indptr, indices = csr(*PATH_AND_DIAMOND)
        _, _, eccentricities = sweep.brandes_sweep(indptr, indices, [9, 0], saved_successors)
        assert eccentricities.tolist() == [0, 3]
        assert_matches_oracle(indptr, indices, [9, 0, 9], saved_successors)

    def test_one_root(self, saved_successors):
        indptr, indices = csr(*PATH_AND_DIAMOND)
        assert_matches_oracle(indptr, indices, [8], saved_successors)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_index_dtypes(self, saved_successors, dtype):
        indptr, indices = csr(*PATH_AND_DIAMOND, dtype=dtype)
        assert_matches_oracle(indptr, indices, [0, 8, 2], saved_successors)

    @pytest.mark.parametrize("budget_edges, groups", [(16, 1), (8, 2), (1, 4)])
    def test_group_budget_splits_a_level(
        self, saved_successors, monkeypatch, budget_edges, groups
    ):
        """Four roots with four out-edges each: one group of four roots, two
        of two, four of one — whole roots only, the answer unchanged."""
        num_vertices = 8
        edges = [(u, 4 + v) for u in range(4) for v in range(4)]
        indptr, indices = csr(num_vertices, edges)
        monkeypatch.setattr(sweep, "SWEEP_BLOCK_BYTES", 8 * budget_edges)
        roots = np.arange(4, dtype=np.int64)
        first_level = roots * num_vertices + roots
        pairs = list(sweep._expand(indptr, indices, np.diff(indptr), first_level))
        assert len(pairs) == groups
        assert sum(targets.size for _, targets in pairs) == len(edges)
        assert_matches_oracle(indptr, indices, roots, saved_successors)


@st.composite
def rooted_graphs(draw):
    num_vertices = draw(st.integers(1, 14))
    vertex = st.integers(0, num_vertices - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    roots = draw(st.lists(vertex, min_size=1, max_size=5))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    # One edge per group, a few, or everything at once.
    budget_edges = draw(st.sampled_from([1, 3, 7, 1 << 14]))
    return num_vertices, edges, roots, dtype, budget_edges


@pytest.mark.tier2
@FLAVOURS
@settings(max_examples=150, deadline=None)
@given(case=rooted_graphs())
def test_sweep_is_per_root_brandes(saved_successors, case):
    """Sparse random digraphs: isolated and unreachable vertices, repeated
    roots, self-loops and parallel edges all occur."""
    num_vertices, edges, roots, dtype, budget_edges = case
    indptr, indices = csr(num_vertices, edges, dtype)
    budget = sweep.SWEEP_BLOCK_BYTES
    sweep.SWEEP_BLOCK_BYTES = 8 * budget_edges
    try:
        assert_matches_oracle(indptr, indices, roots, saved_successors)
    finally:
        sweep.SWEEP_BLOCK_BYTES = budget
