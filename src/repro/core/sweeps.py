"""Parameter sweeps: the library API behind the ablation benches.

Each sweep runs a kernel across one tuning dimension and returns row
dicts (parameter, seconds, work counters) ready for ``tables.render`` or
the markdown writer.  Three sweeps cover the sensitivities the paper's
methodology discusses:

* ``delta_sweep`` — SSSP bucket width (the Baseline rules' one explicit
  tuning exception, "orders of magnitude difference" on Road);
* ``direction_threshold_sweep`` — the alpha parameter of
  direction-optimizing BFS (the push->pull switch the reference tunes);
* ``scale_sweep`` — kernel time versus graph size for a fixed topology.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from .. import counters
from ..gapbs.bfs import direction_optimizing_bfs
from ..gapbs.sssp import delta_stepping
from ..generators import build_graph, weighted_version
from ..graphs import CSRGraph
from .spec import SourcePicker

__all__ = ["delta_sweep", "direction_threshold_sweep", "scale_sweep"]


def _timed(run: Callable[[], object], repeats: int) -> tuple[float, counters.WorkCounters]:
    """Best-of-``repeats`` wall time plus the work counters of the best run."""
    best = np.inf
    best_work = counters.WorkCounters()
    for _ in range(repeats):
        with counters.counting() as work:
            start = time.perf_counter()
            run()
            elapsed = time.perf_counter() - start
        if elapsed < best:
            best, best_work = elapsed, work
    return best, best_work


def delta_sweep(
    graph: CSRGraph,
    deltas: tuple[int, ...] = (4, 16, 64, 256, 1024),
    seed: int = 0,
    repeats: int = 3,
) -> list[dict[str, object]]:
    """SSSP time and rounds across bucket widths."""
    weighted = graph if graph.is_weighted else weighted_version(graph, seed=seed)
    source = SourcePicker(weighted, seed).next_source()
    rows = []
    for delta in deltas:
        seconds, work = _timed(
            lambda: delta_stepping(weighted, source, delta=delta), repeats
        )
        rows.append(
            {
                "delta": delta,
                "seconds": round(seconds, 6),
                "rounds": work.rounds,
                "edges": work.edges_examined,
            }
        )
    return rows


def direction_threshold_sweep(
    graph: CSRGraph,
    alphas: tuple[int, ...] = (0, 4, 15, 64, 256),
    seed: int = 0,
    repeats: int = 3,
) -> list[dict[str, object]]:
    """BFS edge work across push->pull switch thresholds.

    GAP's switch fires when the frontier's edge volume exceeds
    ``edges_remaining / alpha`` — a *large* alpha switches to pull almost
    immediately; ``alpha = 0`` disables pulling entirely (pure push, the
    sweep's baseline).  The edge-examined column shows the optimization's
    work saving; the time column shows where the bitmap overhead wins it
    back.
    """
    source = SourcePicker(graph, seed).next_source()
    rows = []
    for alpha in alphas:
        seconds, work = _timed(
            lambda: direction_optimizing_bfs(graph, source, alpha=alpha), repeats
        )
        rows.append(
            {
                "alpha": alpha,
                "seconds": round(seconds, 6),
                "edges": work.edges_examined,
                "rounds": work.rounds,
                "switched": int(work.extras.get("direction_switches", 0)),
            }
        )
    return rows


def scale_sweep(
    graph_name: str,
    kernel: Callable[[CSRGraph], object],
    scales: tuple[int, ...] = (9, 10, 11, 12),
    seed: int = 0,
    repeats: int = 3,
) -> list[dict[str, object]]:
    """Kernel time versus graph scale for one topology class."""
    rows = []
    for scale in scales:
        graph = build_graph(graph_name, scale=scale, seed=seed)
        seconds, work = _timed(lambda: kernel(graph), repeats)
        rows.append(
            {
                "scale": scale,
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "seconds": round(seconds, 6),
                "work_edges": work.edges_examined,
            }
        )
    return rows
