"""Shape-agreement analysis: reproduction results vs the paper's tables.

Absolute times cannot transfer from a 32-core Xeon running C++ to
single-process NumPy, so the comparison is structural:

* **direction agreement** — per Table V cell, do the paper and the
  reproduction agree on whether the framework beats the GAP reference
  (>= 100%) or not?  Cells near parity are genuinely ambiguous, so a
  dead-band around 100% is treated as agreeing with either side.
* **rank correlation** — per framework, Spearman correlation between the
  paper's 30 cell values and the reproduction's (does the same kernel x
  graph pattern emerge?), computed in NumPy as the Pearson correlation
  (``np.corrcoef``) of the two vectors' average ranks.
* **winner overlap** — per Table IV cell, whether the paper's class of
  winner matches (exact winner matching is too strict given how close the
  top frameworks run; the reports list both).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..frameworks.base import KERNELS, Mode
from .paper_data import PAPER_GRAPH_ORDER, PAPER_TABLE5, paper_table5
from .results import ResultSet

__all__ = ["CellComparison", "compare_table5", "agreement_summary", "framework_rank_correlation"]

# Within this band of 100% a cell counts as "parity" and agrees either way.
PARITY_BAND = (85.0, 118.0)


@dataclass(frozen=True)
class CellComparison:
    """One Table V cell, paper vs reproduction."""

    framework: str
    kernel: str
    graph: str
    mode: Mode
    paper_percent: float
    measured_percent: float

    @property
    def paper_direction(self) -> int:
        """-1 slower than reference, 0 parity, +1 faster."""
        return _direction(self.paper_percent)

    @property
    def measured_direction(self) -> int:
        return _direction(self.measured_percent)

    @property
    def agrees(self) -> bool:
        """Direction agreement with a parity dead-band."""
        if self.paper_direction == 0 or self.measured_direction == 0:
            return True
        return self.paper_direction == self.measured_direction


def _direction(percent: float) -> int:
    if percent < PARITY_BAND[0]:
        return -1
    if percent > PARITY_BAND[1]:
        return 1
    return 0


def compare_table5(
    results: ResultSet, reference: str = "gap"
) -> list[CellComparison]:
    """Pair every measured Table V cell with the paper's value."""
    comparisons: list[CellComparison] = []
    for framework in PAPER_TABLE5:
        for kernel in KERNELS:
            for mode in (Mode.BASELINE, Mode.OPTIMIZED):
                for graph in PAPER_GRAPH_ORDER:
                    mine = results.one(framework, kernel, graph, mode)
                    ref = results.one(reference, kernel, graph, mode)
                    if mine is None or ref is None:
                        continue
                    measured = 100.0 * ref.seconds / mine.seconds
                    comparisons.append(
                        CellComparison(
                            framework,
                            kernel,
                            graph,
                            mode,
                            paper_table5(framework, kernel, graph, mode),
                            round(measured, 1),
                        )
                    )
    return comparisons


def agreement_summary(comparisons: list[CellComparison]) -> dict[str, object]:
    """Aggregate agreement statistics over all compared cells."""
    total = len(comparisons)
    agreeing = sum(1 for c in comparisons if c.agrees)
    by_kernel: dict[str, list[CellComparison]] = {}
    by_framework: dict[str, list[CellComparison]] = {}
    for comparison in comparisons:
        by_kernel.setdefault(comparison.kernel, []).append(comparison)
        by_framework.setdefault(comparison.framework, []).append(comparison)
    return {
        "cells": total,
        "direction_agreement": agreeing / total if total else 0.0,
        "per_kernel": {
            kernel: sum(c.agrees for c in cells) / len(cells)
            for kernel, cells in by_kernel.items()
        },
        "per_framework": {
            framework: sum(c.agrees for c in cells) / len(cells)
            for framework, cells in by_framework.items()
        },
        "disagreements": [
            (c.framework, c.kernel, c.graph, c.mode.value, c.paper_percent, c.measured_percent)
            for c in comparisons
            if not c.agrees
        ],
    }


def framework_rank_correlation(
    comparisons: list[CellComparison],
) -> dict[str, float]:
    """Spearman correlation of paper-vs-measured cell patterns per framework."""
    correlations: dict[str, float] = {}
    frameworks = {c.framework for c in comparisons}
    for framework in sorted(frameworks):
        cells = [c for c in comparisons if c.framework == framework]
        paper = np.array([c.paper_percent for c in cells])
        measured = np.array([c.measured_percent for c in cells])
        if paper.size < 3:
            continue
        rank_pair = np.vstack((_average_ranks(paper), _average_ranks(measured)))
        correlations[framework] = float(np.corrcoef(rank_pair)[0, 1])
    return correlations


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing their average rank; NaN stays NaN.

    The ranking SciPy's ``rankdata`` gives by default; a NaN rank makes
    the coefficient NaN, as ``spearmanr`` returns for input with a NaN.
    """
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    tie_group = np.cumsum(starts) - 1
    bounds = np.flatnonzero(np.r_[starts, True])
    ranks = np.empty(values.size)
    ranks[order] = 0.5 * (bounds[:-1] + bounds[1:] + 1)[tie_group]
    ranks[np.isnan(values)] = np.nan
    return ranks
