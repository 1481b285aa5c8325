"""Concurrent-worklist analogs: the scheduling substrate of Galois.

Galois implements data-driven algorithms with scalable concurrent
worklists; the paper stresses that it uses *sparse* worklists (arrays of
active vertices) where most frameworks use dense bitvectors, and that the
same worklists enable *asynchronous* execution without round barriers.

We model a worklist as a queue of vertex *chunks* (NumPy arrays), matching
Galois' chunked work-stealing queues: operators are applied to one chunk at
a time, and work pushed mid-run is popped in the same pass, with no round
barrier.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["ChunkedWorklist", "OrderedByIntegerMetric"]


class ChunkedWorklist:
    """FIFO worklist of vertex chunks (Galois' dChunkedFIFO analog)."""

    def __init__(self, chunk_size: int = 4096) -> None:
        self.chunk_size = int(chunk_size)
        self._chunks: deque[np.ndarray] = deque()

    def push(self, vertices: np.ndarray) -> None:
        """Add active vertices, splitting into chunk-sized pieces."""
        vertices = np.asarray(vertices, dtype=np.int64)
        for start in range(0, vertices.size, self.chunk_size):
            piece = vertices[start: start + self.chunk_size]
            if piece.size:
                self._chunks.append(piece)

    def pop(self) -> np.ndarray | None:
        """Remove and return the oldest work, merged up to one chunk's size.

        Small pushes (a few activations each) are coalesced on pop so a
        worker always grabs a full chunk where one is available — matching
        Galois' chunked queues, where work is handed out chunk-at-a-time
        regardless of how it trickled in.
        """
        if not self._chunks:
            return None
        first = self._chunks.popleft()
        if first.size >= self.chunk_size or not self._chunks:
            return first
        pieces = [first]
        size = int(first.size)
        while self._chunks and size < self.chunk_size:
            piece = self._chunks.popleft()
            pieces.append(piece)
            size += int(piece.size)
        return np.concatenate(pieces)

    def __bool__(self) -> bool:
        return bool(self._chunks)


class OrderedByIntegerMetric:
    """Priority worklist of chunks, bucketed by an integer metric (OBIM).

    Galois' OBIM approximates priority order cheaply: work items land in the
    bucket given by their metric and buckets are drained lowest-first, with
    no ordering inside a bucket.  Delta-stepping's buckets map directly.
    """

    def __init__(self, chunk_size: int = 4096) -> None:
        self.chunk_size = int(chunk_size)
        self._buckets: dict[int, ChunkedWorklist] = {}

    def push(self, vertices: np.ndarray, priorities: np.ndarray) -> None:
        """Add vertices, each under its integer priority."""
        vertices = np.asarray(vertices, dtype=np.int64)
        priorities = np.asarray(priorities, dtype=np.int64)
        for priority in np.unique(priorities):
            members = vertices[priorities == priority]
            bucket = self._buckets.get(int(priority))
            if bucket is None:
                bucket = ChunkedWorklist(self.chunk_size)
                self._buckets[int(priority)] = bucket
            bucket.push(members)

    def current_priority(self) -> int | None:
        """Lowest non-empty priority, or None when empty."""
        while self._buckets:
            lowest = min(self._buckets)
            if self._buckets[lowest]:
                return lowest
            del self._buckets[lowest]
        return None

    def pop_chunk(self) -> tuple[int, np.ndarray] | None:
        """Remove one chunk from the lowest bucket: (priority, vertices)."""
        priority = self.current_priority()
        if priority is None:
            return None
        chunk = self._buckets[priority].pop()
        if not self._buckets[priority]:
            del self._buckets[priority]
        return priority, chunk

    def __bool__(self) -> bool:
        return self.current_priority() is not None
