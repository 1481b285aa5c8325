"""The asynchronous operator executor.

Galois programs are written as an *operator* applied to active vertices
(the paper's Section III-B), and the executor decides the schedule.
``for_each_eager`` pops chunks and applies the operator immediately; newly
activated vertices go back into the *same* worklist and can be processed
within what a BSP execution would call the current round.  No barriers —
updated labels are visible to later chunks at once, which converges faster
on high-diameter graphs (fewer redundant re-activations) at the cost of
redundant work on low-diameter ones, exactly the trade-off the paper
measures on Road vs Urand.  Galois' bulk-synchronous variants run the
shared ``repro.la`` bodies instead.

Operators are *bulk*: they receive a chunk (array) of active vertices and
return the vertices they activated.  This matches Galois' chunked execution
while keeping the Python reproduction vectorizable.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core import counters
from .worklists import ChunkedWorklist

__all__ = ["ASYNC_CHUNK_SIZE", "for_each_eager"]

BulkOperator = Callable[[np.ndarray], np.ndarray]

# Async chunk budget: large enough that per-chunk dispatch overhead
# amortizes, small enough that freshly-updated labels still propagate
# within what a BSP execution would call a round.
ASYNC_CHUNK_SIZE = 1024


def for_each_eager(
    initial: np.ndarray,
    operator: BulkOperator,
    chunk_size: int = ASYNC_CHUNK_SIZE,
) -> int:
    """Asynchronous execution; returns the number of chunks processed."""
    worklist = ChunkedWorklist(chunk_size)
    worklist.push(np.asarray(initial, dtype=np.int64))
    chunks = 0
    while True:
        chunk = worklist.pop()
        if chunk is None:
            return chunks
        chunks += 1
        counters.add_vertices(chunk.size)
        activated = operator(chunk)
        if activated.size:
            worklist.push(activated)
