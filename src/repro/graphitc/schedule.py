"""GraphIt scheduling language: optimization choices decoupled from algorithms.

GraphIt's core idea (Section III-D of the paper) is that the *algorithm*
("apply this function over these edges") says nothing about *how* to run
it; a separate schedule composes direction choice, frontier data layout,
parallelization, and cache/NUMA tiling.  This module is the
schedule side: a validated, declarative description the execution engine
interprets.  Invalid combinations raise :class:`SchedulingError` at
construction — GraphIt's compiler, likewise, rejects them statically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from ..errors import SchedulingError

__all__ = ["Direction", "FrontierLayout", "Schedule"]


class Direction(enum.Enum):
    """Edge traversal direction for an edgeset.apply."""

    SPARSE_PUSH = "SparsePush"
    DENSE_PULL = "DensePull"
    # Hybrid: the runtime picks push or pull per step from frontier density.
    DENSE_PULL_SPARSE_PUSH = "DensePull-SparsePush"


class FrontierLayout(enum.Enum):
    """Data layout of the active-vertex set."""

    SPARSE_ARRAY = "sparse"
    BITVECTOR = "bitvector"


@dataclass(frozen=True)
class Schedule:
    """One operator's schedule (the ``s1:`` label target in GraphIt).

    Attributes:
        direction: Traversal direction policy.
        frontier: Active-set layout; bitvectors win when frontiers are
            large, sparse arrays when small (the paper's BC discussion).
        num_segments: Cache-tiling segment count for full-edge sweeps
            (GraphIt's Optimized PR); 0 disables tiling.
        bucket_fusion: For ordered (priority-bucket) operators: process
            same-priority refills without a synchronization round.
        delta: Bucket width for ordered operators.
    """

    direction: Direction = Direction.DENSE_PULL_SPARSE_PUSH
    frontier: FrontierLayout = FrontierLayout.SPARSE_ARRAY
    num_segments: int = 0
    bucket_fusion: bool = False
    delta: int = 16

    def __post_init__(self) -> None:
        if self.num_segments < 0:
            raise SchedulingError("num_segments must be >= 0")
        if self.delta <= 0:
            raise SchedulingError("delta must be positive")
        if (
            self.direction is Direction.DENSE_PULL
            and self.frontier is FrontierLayout.SPARSE_ARRAY
        ):
            # Pull steps iterate destinations; a sparse source frontier
            # would be scanned per edge.  GraphIt converts it to a bitvector
            # (or boolmap); we require the schedule to say so explicitly.
            raise SchedulingError(
                "DensePull requires a bitvector frontier layout"
            )

    def with_(self, **changes) -> "Schedule":
        """Return a copy with the given fields replaced (builder style)."""
        return replace(self, **changes)
