"""GraphIt vertexsets: active-vertex collections with schedulable layout.

A vertexset is the DSL's frontier abstraction.  The *algorithm* only ever
asks for membership, size, and iteration; the *schedule* decides whether
the backing store is a sparse index array or a dense bitvector, and the
engine converts between them as the schedule demands.  Conversions report
to the work counters: the paper attributes real costs to frontier/vertexset
creation mechanics (GAP vs GraphIt BFS on Road).
"""

from __future__ import annotations

import numpy as np

from ..core import counters
from ..la import unique_ids
from .schedule import FrontierLayout

__all__ = ["VertexSet"]


class VertexSet:
    """A set of vertex ids with a schedule-chosen physical layout."""

    __slots__ = ("n", "layout", "_ids", "_bits")

    def __init__(self, n: int, layout: FrontierLayout = FrontierLayout.SPARSE_ARRAY) -> None:
        self.n = int(n)
        self.layout = layout
        self._ids = np.empty(0, dtype=np.int64)
        self._bits: np.ndarray | None = None
        if layout is FrontierLayout.BITVECTOR:
            self._bits = np.zeros(n, dtype=bool)

    @classmethod
    def from_ids(
        cls, n: int, ids: np.ndarray, layout: FrontierLayout = FrontierLayout.SPARSE_ARRAY
    ) -> "VertexSet":
        vs = cls(n, layout)
        ids = np.asarray(ids, dtype=np.int64)
        if layout is FrontierLayout.BITVECTOR:
            vs._bits[ids] = True
        else:
            vs._ids = unique_ids(ids, n)
        return vs

    def size(self) -> int:
        """Number of member vertices."""
        if self.layout is FrontierLayout.BITVECTOR:
            return int(self._bits.sum())
        return int(self._ids.size)

    def ids(self) -> np.ndarray:
        """Member ids as a sorted array (materializes from a bitvector)."""
        if self.layout is FrontierLayout.BITVECTOR:
            return self._bits.nonzero()[0]
        return self._ids

    def contains(self, ids: np.ndarray) -> np.ndarray:
        """Boolean membership test for an id array."""
        if self.layout is FrontierLayout.BITVECTOR:
            return self._bits[ids]
        position = np.searchsorted(self._ids, ids)
        if self._ids.size == 0:
            return np.zeros(np.shape(ids), dtype=bool)
        position = np.minimum(position, self._ids.size - 1)
        return self._ids[position] == ids

    def to_layout(self, layout: FrontierLayout) -> "VertexSet":
        """Convert to the requested layout (a timed, counted operation)."""
        if layout is self.layout:
            return self
        counters.note("frontier_conversions")
        return VertexSet.from_ids(self.n, self.ids(), layout)

    def __bool__(self) -> bool:
        return self.size() > 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VertexSet(n={self.n}, size={self.size()}, layout={self.layout.value})"
