"""Sparse/dense vectors with masks for the GraphBLAS-style engine.

SuiteSparse:GraphBLAS internally switches a vector between a sparse index
list, a bitmap, and a full array; the paper notes this explicitly — the
LAGraph BFS converts the frontier to a bitmap for pull steps and to a
sparse list for push steps, *and that conversion time is part of the
measured runtime*.  This Vector mirrors that: storage is either ``sparse``
(sorted indices + values) or ``dense`` (full value array + presence bitmap),
conversions are explicit, and each conversion reports to the work counters.
"""

from __future__ import annotations

import numpy as np

from .. import counters
from ..errors import DimensionMismatchError, InvalidValueError

__all__ = ["Vector"]


class Vector:
    """A GraphBLAS-style vector of dimension ``n``.

    Entries are "present" or structurally absent; absent is not zero.
    """

    __slots__ = ("n", "mode", "idx", "vals", "present")

    def __init__(self, n: int) -> None:
        self.n = int(n)
        self.mode = "sparse"
        self.idx = np.empty(0, dtype=np.int64)
        self.vals = np.empty(0, dtype=np.float64)
        self.present: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_entries(cls, n: int, idx: np.ndarray, vals: np.ndarray) -> "Vector":
        """Sparse vector from (indices, values); indices must be unique."""
        v = cls(n)
        idx = np.asarray(idx, dtype=np.int64)
        vals = np.asarray(vals)
        if idx.shape != vals.shape:
            raise DimensionMismatchError("indices and values differ in length")
        order = np.argsort(idx)
        v.idx = idx[order]
        v.vals = vals[order]
        if v.idx.size > 1 and (v.idx[1:] == v.idx[:-1]).any():
            raise InvalidValueError("duplicate indices in vector build")
        return v

    @classmethod
    def full(cls, n: int, value: float | np.ndarray) -> "Vector":
        """Dense vector with every position present."""
        v = cls(n)
        v.mode = "dense"
        v.vals = np.full(n, value, dtype=np.float64) if np.isscalar(value) else np.asarray(value).copy()
        v.present = np.ones(n, dtype=bool)
        v.idx = np.empty(0, dtype=np.int64)
        return v

    @classmethod
    def empty(cls, n: int) -> "Vector":
        return cls(n)

    # ------------------------------------------------------------------
    # Storage-format control (timed, as in SuiteSparse)
    # ------------------------------------------------------------------

    def to_sparse(self) -> "Vector":
        """Convert to sparse storage in place; returns self."""
        if self.mode == "sparse":
            return self
        counters.note("format_conversions")
        self.idx = np.flatnonzero(self.present)
        self.vals = self.vals[self.idx]
        self.present = None
        self.mode = "sparse"
        return self

    def to_dense(self, fill: float = 0.0) -> "Vector":
        """Convert to dense (bitmap) storage in place; returns self."""
        if self.mode == "dense":
            return self
        counters.note("format_conversions")
        dense_vals = np.full(self.n, fill, dtype=np.float64)
        present = np.zeros(self.n, dtype=bool)
        if self.idx.size:
            dense_vals[self.idx] = self.vals
            present[self.idx] = True
        self.vals = dense_vals
        self.present = present
        self.idx = np.empty(0, dtype=np.int64)
        self.mode = "dense"
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def nvals(self) -> int:
        """Number of present entries."""
        if self.mode == "sparse":
            return int(self.idx.size)
        return int(self.present.sum())

    def indices(self) -> np.ndarray:
        """Sorted indices of present entries."""
        if self.mode == "sparse":
            return self.idx
        return np.flatnonzero(self.present)

    def values_at(self, idx: np.ndarray) -> np.ndarray:
        """Values at the given indices (caller guarantees presence)."""
        if self.mode == "dense":
            return self.vals[idx]
        position = np.searchsorted(self.idx, idx)
        return self.vals[position]

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices, values) of all present entries."""
        if self.mode == "sparse":
            return self.idx, self.vals
        idx = np.flatnonzero(self.present)
        return idx, self.vals[idx]

    def contains(self, idx: np.ndarray) -> np.ndarray:
        """Boolean presence test for an index array."""
        if self.mode == "dense":
            return self.present[idx]
        position = np.searchsorted(self.idx, idx)
        position_clipped = np.minimum(position, max(self.idx.size - 1, 0))
        if self.idx.size == 0:
            return np.zeros(idx.shape, dtype=bool)
        return self.idx[position_clipped] == idx

    def to_numpy(self, fill: float = 0.0) -> np.ndarray:
        """Materialize as a plain array with ``fill`` at absent positions."""
        out = np.full(self.n, fill, dtype=np.float64)
        idx, vals = self.entries()
        out[idx] = vals
        return out

    # ------------------------------------------------------------------
    # Masked assignment
    # ------------------------------------------------------------------

    def assign_vector(
        self,
        u: "Vector",
        mask: "Vector | None" = None,
        complement: bool = False,
    ) -> None:
        """``w<mask> = u``: copy u's entries where the mask allows."""
        if u.n != self.n:
            raise DimensionMismatchError("assign dimensions differ")
        idx, vals = u.entries()
        if mask is not None:
            allowed = mask.contains(idx)
            if complement:
                allowed = ~allowed
            idx, vals = idx[allowed], vals[allowed]
        self._assign_at(idx, vals)

    def _assign_at(self, idx: np.ndarray, vals: np.ndarray) -> None:
        """Insert-or-overwrite entries at ``idx``."""
        if idx.size == 0:
            return
        if self.mode == "dense":
            self.vals[idx] = vals
            self.present[idx] = True
            return
        merged_idx = np.concatenate([self.idx, idx])
        merged_vals = np.concatenate([self.vals.astype(np.float64, copy=False), vals])
        # Later entries win: keep the *last* occurrence of each index.
        unique, last = np.unique(merged_idx[::-1], return_index=True)
        take = merged_idx.size - 1 - last
        self.idx = unique
        self.vals = merged_vals[take]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Vector(n={self.n}, nvals={self.nvals}, mode={self.mode})"

