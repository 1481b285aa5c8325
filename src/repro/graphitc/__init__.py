"""GraphIt-style DSL substrate: schedules, vertexsets, engine, buckets.

The algorithm/optimization decoupling of GraphIt, reduced to a library:
algorithms call :func:`edgeset_apply_from` / :func:`edgeset_apply_all`
with a :class:`Schedule` that encodes the optimization decisions the
GraphIt scheduling language would.
"""

from .buckets import BucketPriorityQueue
from .engine import SegmentedEdges, edgeset_apply_all, edgeset_apply_from
from .schedule import Direction, FrontierLayout, Schedule
from .vertexset import VertexSet

__all__ = [
    "BucketPriorityQueue",
    "Direction",
    "FrontierLayout",
    "Schedule",
    "SegmentedEdges",
    "VertexSet",
    "edgeset_apply_all",
    "edgeset_apply_from",
]
