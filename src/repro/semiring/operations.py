"""Core GraphBLAS operations: masked vxm / mxv / mxm / reduce.

These are the bulk operations the LAGraph algorithms are written in:

* ``vxm`` — ``w' = u' * A``: the **push** step (expand the support of ``u``
  across the rows of ``A``), naturally sparse-friendly;
* ``mxv`` — ``w = A * u``: the **pull** step (per *output* row, combine the
  row of ``A`` with ``u``); with a mask, only masked rows are computed at
  all — the masked-assignment trick (``q'<!pi> = q'*A``) the paper's
  Section III-A describes as capturing the inner-loop ``if`` of graph
  algorithms in one bulk expression;
* ``mxm_masked`` — masked matrix multiply, used by triangle counting
  (``C<L> = L*U'``); dispatches to SciPy's compiled matmul as the stand-in
  for SuiteSparse's compiled kernels;
* ``reduce_matrix`` — reduction of all stored values to a scalar.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..core import counters
from ..errors import DimensionMismatchError
from ..la.gather import flat_edge_index
from .matrix import Matrix
from .ops import PLUS, Semiring
from .vector import Vector

__all__ = ["vxm", "mxv", "mxm_masked", "reduce_matrix"]


def _expand_rows(
    matrix: Matrix, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather the CSR entries of ``rows``: (row_of_entry, col, value)."""
    row_ids, flat, total = flat_edge_index(matrix.indptr, rows)
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=np.float64)
    values = matrix.value_array()[flat] if not matrix.iso else np.ones(total)
    return row_ids, matrix.indices[flat], values


def vxm(
    u: Vector,
    matrix: Matrix,
    sr: Semiring,
    mask: Vector | None = None,
    complement: bool = False,
) -> Vector:
    """Push step ``w' = u' * A`` under an optional (complemented) mask."""
    if u.n != matrix.nrows:
        raise DimensionMismatchError("vxm: u length must equal nrows")
    u_idx, u_vals = u.entries()
    rows, cols, a_vals = _expand_rows(matrix, u_idx)
    counters.add_edges(cols.size)
    if cols.size == 0:
        return Vector.empty(matrix.ncols)
    # Align u's values with the expanded entries.
    x = u.values_at(rows)
    z = sr.multiply.apply(x, a_vals, ix=rows, iy=rows)
    if mask is not None:
        allowed = mask.contains(cols)
        if complement:
            allowed = ~allowed
        cols, z = cols[allowed], np.asarray(z)[allowed]
        if cols.size == 0:
            return Vector.empty(matrix.ncols)
    out_idx, out_vals = sr.add.segment_reduce(
        cols, np.asarray(z, dtype=np.float64), domain=matrix.ncols
    )
    return Vector.from_entries(matrix.ncols, out_idx, out_vals)


def mxv(
    matrix: Matrix,
    u: Vector,
    sr: Semiring,
    mask: Vector | None = None,
    complement: bool = False,
) -> Vector:
    """Pull step ``w = A * u`` under an optional (complemented) mask.

    With a mask, only masked output rows are computed — the performance
    semantics that make ``pi<!visited> = A' * q`` a genuine pull BFS.
    """
    if u.n != matrix.ncols:
        raise DimensionMismatchError("mxv: u length must equal ncols")
    if mask is None:
        rows = np.arange(matrix.nrows, dtype=np.int64)
    else:
        support = mask.indices()
        if complement:
            allowed = np.ones(matrix.nrows, dtype=bool)
            allowed[support] = False
            rows = np.flatnonzero(allowed)
        else:
            rows = support

    # Fast path: plus-monoid over a full vector (PageRank's SpMV) — segment
    # sums over the CSR slices, no per-entry filtering needed.
    if (
        sr.add is PLUS
        and mask is None
        and u.mode == "dense"
        and u.present is not None
        and bool(u.present.all())
    ):
        counters.add_edges(matrix.nvals)
        x = matrix.value_array()
        y = u.vals[matrix.indices]
        z = sr.multiply.apply(x, y, ix=None, iy=matrix.indices)
        prefix = np.concatenate([[0.0], np.cumsum(np.asarray(z, dtype=np.float64))])
        sums = prefix[matrix.indptr[1:]] - prefix[matrix.indptr[:-1]]
        return Vector.full(matrix.nrows, sums)

    row_ids, cols, a_vals = _expand_rows(matrix, rows)
    counters.add_edges(cols.size)
    if cols.size == 0:
        return Vector.empty(matrix.nrows)
    hit = u.contains(cols)
    row_ids, cols, a_vals = row_ids[hit], cols[hit], a_vals[hit]
    if cols.size == 0:
        return Vector.empty(matrix.nrows)
    y = u.values_at(cols)
    z = sr.multiply.apply(a_vals, y, ix=row_ids, iy=cols)
    out_idx, out_vals = sr.add.segment_reduce(
        row_ids, np.asarray(z, dtype=np.float64), domain=matrix.nrows
    )
    return Vector.from_entries(matrix.nrows, out_idx, out_vals)


def mxm_masked(
    a: Matrix,
    b: Matrix,
    sr: Semiring,
    mask: Matrix,
) -> Matrix:
    """Masked matrix multiply ``C<M> = A * B`` for plus-based semirings.

    Dispatches to SciPy's compiled sparse matmul — our stand-in for
    SuiteSparse's compiled kernels — then restricts the result to the mask
    pattern.  ``plus_pair`` (triangle counting) multiplies the *patterns*.
    """
    if a.ncols != b.nrows:
        raise DimensionMismatchError("mxm: inner dimensions differ")
    if sr.add is not PLUS:
        raise DimensionMismatchError("mxm_masked supports plus-monoids only")
    counters.add_edges(a.nvals + b.nvals)
    if sr.multiply.name == "pair":
        left = sp.csr_matrix(
            (np.ones(a.nvals), a.indices, a.indptr), shape=(a.nrows, a.ncols)
        )
        right = sp.csr_matrix(
            (np.ones(b.nvals), b.indices, b.indptr), shape=(b.nrows, b.ncols)
        )
    else:
        left, right = a.to_scipy(), b.to_scipy()
    product = left @ right
    mask_pattern = sp.csr_matrix(
        (np.ones(mask.nvals), mask.indices, mask.indptr),
        shape=(mask.nrows, mask.ncols),
    )
    masked = product.multiply(mask_pattern)
    return Matrix.from_scipy(masked)


def reduce_matrix(matrix: Matrix, monoid=PLUS) -> float:
    """Reduce every stored value of the matrix to a scalar."""
    values = matrix.value_array()
    if values.size == 0:
        return monoid.identity
    if monoid.is_any:
        return float(values[0])
    return float(monoid.reducer.reduce(values))

