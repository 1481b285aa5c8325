"""GraphIt schedule selection: defaults plus per-graph Optimized schedules.

Under Baseline rules GraphIt runs one default schedule per kernel (internal
hybrid heuristics allowed).  Under Optimized rules the paper's GraphIt team
specialized schedules to the known size/structure of each graph; this table
records the specializations the paper describes:

* BFS on Road: push-only (skip the active-count check overhead);
* PR on the social graphs (Twitter/Kron/Urand): cache tiling — Web "had
  good locality and did not benefit as much";
* CC on Road: label propagation with short-circuiting;
* BC on Road: sparse frontier instead of a bitvector;
* TC on Road: the paper switched to "the naive intersection method"; not
  modelled — the substrate's closing test (``la.intersect.count_closing``)
  *is* GraphIt's hash method and is the only one any framework runs.
"""

from __future__ import annotations

from ..graphitc import Direction, FrontierLayout, Schedule

__all__ = ["baseline_schedule", "optimized_schedule"]

_DEFAULTS: dict[str, Schedule] = {
    "bfs": Schedule(direction=Direction.DENSE_PULL_SPARSE_PUSH),
    "sssp": Schedule(direction=Direction.SPARSE_PUSH, bucket_fusion=True),
    "cc": Schedule(direction=Direction.SPARSE_PUSH),
    "pr": Schedule(direction=Direction.SPARSE_PUSH, num_segments=0),
    "bc": Schedule(
        direction=Direction.DENSE_PULL_SPARSE_PUSH,
        frontier=FrontierLayout.BITVECTOR,
    ),
    "tc": Schedule(direction=Direction.SPARSE_PUSH),
}

_OPTIMIZED_OVERRIDES: dict[tuple[str, str], Schedule] = {
    ("bfs", "road"): _DEFAULTS["bfs"].with_(direction=Direction.SPARSE_PUSH),
    ("pr", "twitter"): _DEFAULTS["pr"].with_(num_segments=8),
    ("pr", "kron"): _DEFAULTS["pr"].with_(num_segments=8),
    ("pr", "urand"): _DEFAULTS["pr"].with_(num_segments=8),
    ("bc", "road"): _DEFAULTS["bc"].with_(frontier=FrontierLayout.SPARSE_ARRAY),
}


def baseline_schedule(kernel: str) -> Schedule:
    """The default (Baseline-rules) schedule for a kernel."""
    return _DEFAULTS[kernel]


def optimized_schedule(kernel: str, graph_name: str) -> Schedule:
    """The per-graph Optimized schedule (default when not specialized)."""
    return _OPTIMIZED_OVERRIDES.get((kernel, graph_name), _DEFAULTS[kernel])
