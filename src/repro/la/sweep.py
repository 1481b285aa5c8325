"""Multi-root Brandes: all of a trial's roots advance one level per step.

Brandes from ``k`` roots on ``G`` is Brandes from ``k`` seeds on ``k``
disjoint copies of ``G``: root ``r``'s copy of vertex ``v`` gets the
*lifted* id ``r * n + v``, the state arrays hold ``k * n`` entries, and the
ordinary level body runs once per level over every root's frontier.  Copies
share no id, so each root's edges are met in the order its own loop met
them and every sum is the per-root sum, bit for bit; only the number of
NumPy calls per level changes, which is all a short frontier pays for.

The backward pass has the two flavours of the paper's Table III: replay
the **saved successors** of the forward pass (GAP, GKC), or **re-expand**
each level and re-filter its edges by depth (NWGraph, Galois).  Nothing
here reports to ``counters``: the exact work (``examined`` edges, per-root
eccentricities) is returned and the calling framework reports it, with
``rounds = sum(2 * ecc + 1)`` for a forward and a backward pass per root.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .frontier import unique_ids
from .gather import gather_edges

__all__ = ["brandes_sweep", "brandes_forward", "brandes_backward", "SWEEP_BLOCK_BYTES"]

# Budget for one gathered int64 edge array.  Lifting makes a level's
# temporaries k times larger, and past what the cache holds and the
# allocator recycles (cf. ``intersect.INTERSECT_BLOCK_EDGES``) that costs a
# wide level more than the saved dispatch: GAP BC on urand-10 reads 1.25 ms
# here, 1.84 ms from 512 KB up.  A level over the budget runs in contiguous
# groups of whole roots, never fewer than one: per-root Brandes in the limit.
SWEEP_BLOCK_BYTES = 1 << 17

Edges = tuple[np.ndarray, np.ndarray]


def _root_cuts(frontier: np.ndarray, counts: np.ndarray, num_vertices: int) -> list[int]:
    """Cut a level into runs of whole roots whose edges fit the budget."""
    first, last = int(frontier[0]) // num_vertices, int(frontier[-1]) // num_vertices
    begins = frontier.searchsorted(np.arange(first, last + 2) * num_vertices)
    edges_before = np.concatenate([[0], counts.cumsum()])[begins]
    cuts, group_start = [0], 0
    for root in range(1, begins.size - 1):
        over = edges_before[root + 1] - group_start > SWEEP_BLOCK_BYTES // 8
        if over and begins[root] > cuts[-1]:
            cuts.append(int(begins[root]))
            group_start = edges_before[root]
    return cuts + [frontier.size]


def _expand(
    indptr: np.ndarray, indices: np.ndarray, degrees: np.ndarray, frontier: np.ndarray
) -> Iterator[Edges]:
    """Lifted ``(sources, targets)`` of the edges leaving ``frontier``.

    ``frontier`` is sorted by lifted id, so each root's entries are
    contiguous; one pair is yielded per root group.
    """
    rows = frontier % degrees.size
    counts = degrees[rows]
    if int(counts.sum()) * 8 <= SWEEP_BLOCK_BYTES:
        cuts = [0, frontier.size]
    else:
        cuts = _root_cuts(frontier, counts, degrees.size)
    for lo, hi in zip(cuts, cuts[1:]):
        owners, targets = gather_edges(indptr, indices, rows[lo:hi])
        lift = frontier[lo:hi] - rows[lo:hi]
        # One root in the group: its offset is a scalar, not an edge array.
        lift = lift[0] if lift[0] == lift[-1] else lift.repeat(counts[lo:hi])
        owners += lift
        yield owners, targets + lift


def brandes_forward(
    indptr: np.ndarray, indices: np.ndarray, roots: np.ndarray, save_successors: bool
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], list[list[Edges]], int]:
    """Level-synchronous BFS with path counting from every root at once.

    Returns lifted ``(depth, sigma, levels, successors, examined)``:
    ``levels[d]`` is the sorted lifted ids at depth ``d`` and, when asked
    for, ``successors[d]`` the shortest-path DAG edges from depth ``d`` to
    ``d + 1`` (one pair per root group).
    """
    num_vertices = indptr.size - 1
    degrees = np.diff(indptr)
    frontier = np.arange(len(roots), dtype=np.int64) * num_vertices + roots
    depth = np.full(len(roots) * num_vertices, -1, dtype=np.int64)
    sigma = np.zeros(depth.size, dtype=np.float64)
    depth[frontier] = 0
    sigma[frontier] = 1.0
    levels: list[np.ndarray] = []
    successors: list[list[Edges]] = []
    examined = 0
    while frontier.size:
        levels.append(frontier)
        discovered, saved = [], []
        for sources, targets in _expand(indptr, indices, degrees, frontier):
            examined += targets.size
            fresh = targets[depth[targets] < 0]
            depth[fresh] = len(levels)
            on_next = depth[targets] == len(levels)
            succ_src, succ_dst = sources[on_next], targets[on_next]
            np.add.at(sigma, succ_dst, sigma[succ_src])
            discovered.append(fresh)
            saved.append((succ_src, succ_dst))
        if save_successors:
            successors.append(saved)
        fresh = discovered[0] if len(discovered) == 1 else np.concatenate(discovered)
        frontier = unique_ids(fresh, depth.size)
    return depth, sigma, levels, successors, examined


def brandes_backward(
    indptr: np.ndarray,
    indices: np.ndarray,
    roots: np.ndarray,
    depth: np.ndarray,
    sigma: np.ndarray,
    levels: list[np.ndarray],
    successors: list[list[Edges]] | None = None,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Dependency accumulation over lifted forward state.

    With ``successors`` the saved DAG is replayed; without, every level is
    re-expanded and its edges re-filtered by depth.  Each root's
    dependencies exclude the root itself and are added in root order.
    Returns ``(scores, examined, eccentricities)``.
    """
    num_vertices = indptr.size - 1
    degrees = np.diff(indptr)
    eccentricity = depth.reshape(len(roots), num_vertices).max(axis=1)
    deepest = set(eccentricity.tolist())
    delta = np.zeros_like(sigma)
    examined = 0
    for level in range(len(levels) - 2, -1, -1):
        if successors is None:
            members = levels[level]
            if level in deepest:
                # A root with nothing below this level sits it out: its own
                # loop never expanded its deepest level a second time.
                members = members[eccentricity[members // num_vertices] > level]
            groups = _expand(indptr, indices, degrees, members)
        else:
            groups = successors[level]
        for sources, targets in groups:
            examined += targets.size
            if successors is None:
                on_dag = depth[targets] == level + 1
                sources, targets = sources[on_dag], targets[on_dag]
            np.add.at(
                delta, sources, (sigma[sources] / sigma[targets]) * (1.0 + delta[targets])
            )
    per_root = delta.reshape(len(roots), num_vertices)
    per_root[np.arange(len(roots)), roots] = 0.0
    scores = np.zeros(num_vertices, dtype=np.float64)
    for dependencies in per_root:
        scores += dependencies
    return scores, examined, eccentricity


def brandes_sweep(
    indptr: np.ndarray, indices: np.ndarray, roots: np.ndarray, saved_successors: bool
) -> tuple[np.ndarray, int, np.ndarray]:
    """Brandes dependencies of ``roots``: ``(scores, examined, eccentricities)``."""
    roots = np.asarray(roots, dtype=np.int64)
    depth, sigma, levels, successors, forward_examined = brandes_forward(
        indptr, indices, roots, saved_successors
    )
    scores, backward_examined, eccentricities = brandes_backward(
        indptr, indices, roots, depth, sigma, levels,
        successors if saved_successors else None,
    )
    return scores, forward_examined + backward_examined, eccentricities
