"""Masked SpMV primitives: the linear-algebra core under the frameworks.

GraphBLAST and GraphMat demonstrated that one well-optimized masked
SpMV/semiring engine can back every classic graph kernel; this module is
that engine for the reproduction.  Four tiers:

* :func:`plus_times_operator` — the (+, x) semiring product as a reusable
  operator closure over SciPy's compiled matvec (our stand-in for a vendor
  BLAS).  PageRank-style iteration builds the operator once and applies
  it every sweep, amortizing construction exactly like a real library
  would.
* :func:`blocked_gauss_seidel` — PageRank sweeps over that product cut into
  row blocks, each block reading the scores the blocks before it just
  wrote (GraphMat's vertex-program-as-SpMV mapping): the Gauss-Seidel PR of
  Galois, GKC and NWGraph, the block bounds being their argument.
* :func:`spmv_min_plus` — the full (min, +) tropical product, segment-min
  over CSR rows (SciPy has no min-plus; ``np.minimum.reduceat`` does).
* :func:`masked_pull_claim` — the masked pull step of direction-optimized
  BFS: rows restricted to a structural mask (the unvisited set), values
  from the ``any_secondi`` semiring (adopt the first in-neighbor found in
  the frontier bitmap), with an optional chunked early-exit scan that
  stops paying for a row's in-adjacency once a parent is found.

Work accounting stays with the callers: every function returns (or lets
the caller compute) the number of edges actually examined, and never
touches the counters itself.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from .gather import gather_edges
from .frontier import claim_first_writer

__all__ = [
    "plus_times_operator",
    "blocked_gauss_seidel",
    "spmv_min_plus",
    "masked_pull_claim",
]

# Early-exit pull: rows scan their first EARLY_EXIT_CHUNK in-edges, then
# unsatisfied rows scan geometrically larger chunks (x4 per pass).  The
# first chunk covers most vertices on low-diameter graphs, where nearly
# every in-edge's source is already in the frontier.
EARLY_EXIT_CHUNK = 4
EARLY_EXIT_GROWTH = 4


def plus_times_operator(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Return ``x -> A @ x`` for the CSR matrix ``A`` over (+, x).

    ``data=None`` means an unweighted (pattern) matrix.  Build once per
    kernel invocation; apply once per sweep.
    """
    matrix = _square_csr(indptr, indices, data)
    return lambda x: matrix @ x


def _square_csr(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray | None = None
) -> sp.csr_matrix:
    num_rows = indptr.size - 1
    values = np.ones(indices.size, dtype=np.float64) if data is None else data
    return sp.csr_matrix(
        (values, indices, indptr), shape=(num_rows, num_rows), copy=False
    )


def blocked_gauss_seidel(
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    out_degrees: np.ndarray,
    bounds: np.ndarray,
    damping: float,
    tolerance: float,
    max_iterations: int,
) -> tuple[np.ndarray, int]:
    """PageRank by blocked in-place sweeps: ``(scores, iterations)``.

    Rows ``bounds[b]:bounds[b + 1]`` form block ``b``.  A sweep updates the
    blocks in order, each pulling its in-neighbors' *current* contributions
    — Jacobi within a block, Gauss-Seidel across blocks — with one compiled
    matvec per block over row slices built once per call.  One block is the
    Jacobi sweep of :func:`plus_times_operator`, bit for bit.  Vertices with
    no out-edges contribute nothing; a sweep examines every edge once;
    convergence is an L1 change below ``tolerance``.
    """
    n = in_indptr.size - 1
    base = (1.0 - damping) / n
    scores = np.full(n, 1.0 / n, dtype=np.float64)
    # A dangling vertex divides by inf: its contribution is exactly 0.
    divisor = np.where(out_degrees > 0, out_degrees, np.inf)
    contrib = scores / divisor
    pull = _square_csr(in_indptr, in_indices)
    blocks = [
        (pull[lo:hi], scores[lo:hi], contrib[lo:hi], divisor[lo:hi])
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
        if hi > lo
    ]

    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        previous = scores.copy()
        for rows, block_scores, block_contrib, block_divisor in blocks:
            np.multiply(rows @ contrib, damping, out=block_scores)
            block_scores += base
            np.divide(block_scores, block_divisor, out=block_contrib)
        if float(np.abs(scores - previous).sum()) < tolerance:
            break
    return scores, iterations


def spmv_min_plus(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Full (min, +) product: ``y[i] = min over row i of (w + x[col])``.

    Rows with no stored entries get ``+inf`` (the tropical identity).
    """
    num_rows = indptr.size - 1
    y = np.full(num_rows, np.inf, dtype=np.float64)
    if indices.size == 0:
        return y
    terms = weights + x[indices]
    occupied = np.flatnonzero(indptr[1:] > indptr[:-1])
    if occupied.size == 0:
        return y
    y[occupied] = np.minimum.reduceat(terms, indptr[occupied])
    return y


def _pull_full_scan(
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    unvisited: np.ndarray,
    frontier_bits: np.ndarray,
    parents: np.ndarray,
    num_vertices: int,
) -> tuple[np.ndarray, int]:
    """Worst-case pull: every unvisited row scans its whole in-adjacency."""
    sources, targets = gather_edges(in_indptr, in_indices, unvisited)
    examined = int(targets.size)
    hits = frontier_bits[targets]
    sources, targets = sources[hits], targets[hits]
    if sources.size == 0:
        return np.empty(0, dtype=np.int64), examined
    fresh = claim_first_writer(parents, sources, targets, num_vertices)
    return fresh, examined


def _pull_early_exit(
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    unvisited: np.ndarray,
    frontier_bits: np.ndarray,
    parents: np.ndarray,
    num_vertices: int,
) -> tuple[np.ndarray, int]:
    """Chunked early-exit pull: rows stop scanning at their first hit.

    The vectorized analog of the reference C++ ``break``: all active rows
    scan a bounded chunk of their in-adjacency per pass; rows that found a
    frontier member drop out, and only the remainder pays for deeper
    chunks.  Parent selection is identical to the full scan (the first
    frontier member in adjacency order), only the edges *examined* shrink.
    """
    examined = 0
    chunk = EARLY_EXIT_CHUNK
    cursor = in_indptr[unvisited].astype(np.int64, copy=True)
    row_end = in_indptr[unvisited + 1].astype(np.int64, copy=False)
    active = unvisited
    found_ids: list[np.ndarray] = []
    while active.size:
        take = np.minimum(cursor + chunk, row_end) - cursor
        scanning = take > 0
        rows, starts, counts = active[scanning], cursor[scanning], take[scanning]
        if rows.size == 0:
            break
        ends = np.cumsum(counts)
        total = int(ends[-1])
        examined += total
        flat = np.repeat(starts - (ends - counts), counts) + np.arange(
            total, dtype=np.int64
        )
        targets = in_indices[flat]
        owners = np.repeat(rows, counts)
        hits = frontier_bits[targets]
        if hits.any():
            fresh = claim_first_writer(
                parents, owners[hits], targets[hits], num_vertices
            )
            found_ids.append(fresh)
            satisfied = np.zeros(num_vertices, dtype=bool)
            satisfied[fresh] = True
            keep = ~satisfied[active] & (cursor + chunk < row_end)
        else:
            keep = cursor + chunk < row_end
        cursor = cursor + chunk
        active, cursor, row_end = active[keep], cursor[keep], row_end[keep]
        chunk *= EARLY_EXIT_GROWTH
    if not found_ids:
        return np.empty(0, dtype=np.int64), examined
    if len(found_ids) == 1:
        return found_ids[0], examined
    flags = np.zeros(num_vertices, dtype=bool)
    for ids in found_ids:
        flags[ids] = True
    return np.flatnonzero(flags), examined


def masked_pull_claim(
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    unvisited: np.ndarray,
    frontier_bits: np.ndarray,
    parents: np.ndarray,
    early_exit: bool = False,
) -> tuple[np.ndarray, int]:
    """Masked pull step: unvisited rows adopt their first frontier in-neighbor.

    The structural mask is the ``unvisited`` row set (the complement of the
    visited vector); values follow the ``any_secondi`` semiring — each
    claimed row's parent is the first in-neighbor found in ``frontier_bits``.
    Writes ``parents`` in place and returns ``(fresh_rows, edges_examined)``
    so the caller can report work honestly (with ``early_exit`` the scan
    stops per row at the first hit, which is *less* work than the full
    scan — see the counter-regression pin in ``tests/test_counter_regression``).
    """
    num_vertices = parents.size
    if unvisited.size == 0:
        return np.empty(0, dtype=np.int64), 0
    if early_exit:
        return _pull_early_exit(
            in_indptr, in_indices, unvisited, frontier_bits, parents, num_vertices
        )
    return _pull_full_scan(
        in_indptr, in_indices, unvisited, frontier_bits, parents, num_vertices
    )
