"""Sparse matrices (CSR + cached transpose) for the GraphBLAS-style engine.

Like SuiteSparse, a Matrix may be *iso-valued* (pattern-only with an
implicit value of 1) — GraphBLAS exploits this for algorithms such as
LAGraph's PageRank that only touch the structure of the adjacency matrix.
The matrix keeps its transpose cached, mirroring the GAP convention that
both orientations of the graph are available without timed conversion.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import DimensionMismatchError
from ..graphs import CSRGraph

__all__ = ["Matrix"]


class Matrix:
    """A GraphBLAS-style sparse matrix in CSR form."""

    __slots__ = ("nrows", "ncols", "indptr", "indices", "values", "_transpose", "_scipy")

    def __init__(
        self,
        nrows: int,
        ncols: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray | None = None,
    ) -> None:
        if indptr.shape != (nrows + 1,):
            raise DimensionMismatchError("indptr length must be nrows + 1")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.indptr = indptr
        self.indices = indices
        self.values = values  # None => iso-valued pattern matrix (value 1)
        self._transpose: "Matrix | None" = None
        self._scipy: sp.csr_matrix | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: CSRGraph, use_weights: bool = False) -> "Matrix":
        """Adjacency matrix of a graph; A[u, v] = 1 (or weight) iff u->v.

        The transpose is pre-linked from the graph's in-adjacency, so — as
        in the GAP setup — no transposition is ever timed.
        """
        values = graph.weights if (use_weights and graph.weights is not None) else None
        matrix = cls(
            graph.num_vertices,
            graph.num_vertices,
            graph.indptr,
            graph.indices,
            None if values is None else values.astype(np.float64),
        )
        in_values = (
            None
            if values is None
            else (graph.in_weights.astype(np.float64) if graph.in_weights is not None else None)
        )
        transpose = cls(
            graph.num_vertices,
            graph.num_vertices,
            graph.in_indptr,
            graph.in_indices,
            in_values,
        )
        matrix._transpose = transpose
        transpose._transpose = matrix
        return matrix

    @classmethod
    def from_scipy(cls, matrix: sp.spmatrix) -> "Matrix":
        """Wrap a SciPy sparse matrix (converted to CSR)."""
        csr = matrix.tocsr()
        return cls(
            csr.shape[0],
            csr.shape[1],
            csr.indptr.astype(np.int64),
            csr.indices.astype(np.int64),
            csr.data.astype(np.float64),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def nvals(self) -> int:
        return int(self.indices.size)

    @property
    def iso(self) -> bool:
        """Whether the matrix is pattern-only (implicit value 1)."""
        return self.values is None

    def row_degrees(self) -> np.ndarray:
        """Entries per row."""
        return np.diff(self.indptr)

    def value_array(self) -> np.ndarray:
        """Values aligned with ``indices`` (ones when iso)."""
        if self.values is None:
            return np.ones(self.indices.size, dtype=np.float64)
        return self.values

    @property
    def T(self) -> "Matrix":
        """Transpose (computed once and cached)."""
        if self._transpose is None:
            csc = self.to_scipy().tocsc()
            transpose = Matrix(
                self.ncols,
                self.nrows,
                csc.indptr.astype(np.int64),
                csc.indices.astype(np.int64),
                None if self.iso else csc.data.astype(np.float64),
            )
            transpose._transpose = self
            self._transpose = transpose
        return self._transpose

    def to_scipy(self) -> sp.csr_matrix:
        """SciPy view (values of 1 when iso); cached."""
        if self._scipy is None:
            self._scipy = sp.csr_matrix(
                (self.value_array(), self.indices, self.indptr),
                shape=(self.nrows, self.ncols),
            )
        return self._scipy

    def select_lower_triangle(self) -> "Matrix":
        """Strictly-lower-triangular part, ``tril(A, -1)`` (pattern kept iso)."""
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_degrees())
        return self._select(rows, self.indices < rows)

    def select_upper_triangle(self) -> "Matrix":
        """Strictly-upper-triangular part, ``triu(A, 1)``."""
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_degrees())
        return self._select(rows, self.indices > rows)

    def _select(self, rows: np.ndarray, keep: np.ndarray) -> "Matrix":
        """The entries ``keep`` marks (``rows`` = each entry's row).

        A filtered CSR is still in row order and each row keeps its column
        order, so the kept entries are counted into row pointers, not
        sorted again: bitwise what ``_from_coo`` builds from sorted rows.
        """
        indptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[keep], minlength=self.nrows), out=indptr[1:])
        return Matrix(
            self.nrows,
            self.ncols,
            indptr,
            self.indices[keep].astype(np.int64, copy=False),
            None if self.iso else self.values[keep],
        )

    def permuted(self, perm: np.ndarray) -> "Matrix":
        """Symmetric permutation P A P' (used by TC's heuristic presort)."""
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_degrees())
        return _from_coo(
            self.nrows, self.ncols, perm[rows], perm[self.indices],
            None if self.iso else self.values.copy(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        iso = " iso" if self.iso else ""
        return f"Matrix({self.nrows}x{self.ncols}, nvals={self.nvals}{iso})"


def _from_coo(
    nrows: int,
    ncols: int,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray | None,
) -> Matrix:
    """Build a Matrix from COO triples (sorted into CSR)."""
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    if values is not None:
        values = values[order]
    counts = np.bincount(rows, minlength=nrows)
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return Matrix(nrows, ncols, indptr, cols.astype(np.int64), values)
