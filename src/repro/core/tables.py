"""Renderers for the paper's Tables I–V over this reproduction's results.

Each ``table*`` function returns structured rows (lists of dicts) so tests
can assert on content; ``render`` turns any row list into aligned ASCII for
the examples and EXPERIMENTS.md.
"""

from __future__ import annotations

from ..frameworks.base import KERNELS, Mode
from ..frameworks.registry import FRAMEWORK_NAMES, attributes_table, get
from ..generators import GAP_GRAPHS
from ..graphs import CSRGraph, analyze
from .results import ResultSet

__all__ = [
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "stability_rows",
    "failure_rows",
    "trial_statistics_rows",
    "render",
    "KERNEL_LABELS",
]

KERNEL_LABELS = {
    "bfs": "BFS",
    "sssp": "SSSP",
    "cc": "CC",
    "pr": "PR",
    "bc": "BC",
    "tc": "TC",
}


def table1_rows(corpus: dict[str, CSRGraph], seed: int = 0) -> list[dict[str, object]]:
    """Table I: per-graph topology, generated analog vs paper original."""
    rows = []
    for name, graph in corpus.items():
        spec = GAP_GRAPHS[name]
        properties = analyze(graph, name=name, seed=seed)
        rows.append(
            {
                "Name": name,
                "Vertices": properties.num_vertices,
                "Edges": properties.num_edges,
                "Directed": "Y" if properties.directed else "N",
                "Degree": round(properties.average_degree, 1),
                "Distribution": properties.degree_distribution,
                "Diameter~": properties.approx_diameter,
                "Paper Vertices (M)": spec.paper_vertices_m,
                "Paper Edges (M)": spec.paper_edges_m,
                "Paper Degree": spec.paper_degree,
                "Paper Distribution": spec.paper_distribution,
                "Paper Diameter": spec.paper_diameter,
            }
        )
    return rows


def table2_rows() -> list[dict[str, str]]:
    """Table II: framework attribute matrix (static metadata)."""
    return attributes_table()


def table3_rows() -> list[dict[str, str]]:
    """Table III: algorithm used by each framework per kernel."""
    rows = []
    for kernel in KERNELS:
        row: dict[str, str] = {"Task": KERNEL_LABELS[kernel]}
        for name in FRAMEWORK_NAMES:
            row[name] = get(name).attributes.algorithms.get(kernel, "-")
        rows.append(row)
    return rows


def _kernels(results: ResultSet) -> list[str]:
    """The kernels ``results`` holds a cell of, in the paper's order."""
    held = {result.kernel for result in results}
    return [kernel for kernel in KERNELS if kernel in held]


def table4_rows(results: ResultSet, graphs: list[str]) -> list[dict[str, object]]:
    """Table IV: fastest time per kernel x graph, per mode, with the winner
    (a row per kernel the results hold)."""
    rows = []
    for kernel in _kernels(results):
        row: dict[str, object] = {"Kernel": KERNEL_LABELS[kernel]}
        for mode in (Mode.BASELINE, Mode.OPTIMIZED):
            for graph in graphs:
                candidates = [
                    r
                    for r in results.lookup(kernel=kernel, graph=graph, mode=mode)
                    if r.ok and r.trial_seconds
                ]
                column = f"{mode.value}:{graph}"
                if not candidates:
                    row[column] = None
                    row[f"{column}:winner"] = None
                    continue
                best = min(candidates, key=lambda r: r.seconds)
                row[column] = round(best.seconds, 4)
                row[f"{column}:winner"] = best.framework
        rows.append(row)
    return rows


def table5_rows(
    results: ResultSet, graphs: list[str], reference: str = "gap"
) -> list[dict[str, object]]:
    """Table V: per-framework speedup over the GAP reference (percent).

    100% = matches the reference, 50% = twice as slow, 200% = twice as
    fast — the paper's convention.  A row per framework and kernel the
    results hold.
    """
    rows = []
    kernels = _kernels(results)
    for framework in results.frameworks():
        if framework == reference:
            continue
        for kernel in kernels:
            row: dict[str, object] = {
                "Framework": framework,
                "Kernel": KERNEL_LABELS[kernel],
            }
            for mode in (Mode.BASELINE, Mode.OPTIMIZED):
                for graph in graphs:
                    column = f"{mode.value}:{graph}"
                    mine = results.one(framework, kernel, graph, mode)
                    ref = results.one(reference, kernel, graph, mode)
                    if (
                        mine is None
                        or ref is None
                        or not (mine.ok and mine.trial_seconds)
                        or not (ref.ok and ref.trial_seconds)
                        or mine.seconds == 0
                    ):
                        row[column] = None
                        continue
                    row[column] = round(100.0 * ref.seconds / mine.seconds, 1)
            rows.append(row)
    return rows


def stability_rows(results: ResultSet, graphs: list[str]) -> list[dict[str, object]]:
    """Per-graph timing stability: mean coefficient of variation per cell.

    The paper's discussion: "timings for algorithms on Road were more
    unstable compared to other cases... most likely due to the short
    runtimes making the results more sensitive to sequential startup
    overheads."  This table aggregates the per-trial variation so that
    observation is checkable from any campaign.
    """
    rows = []
    for graph in graphs:
        cells = [
            r
            for r in results.lookup(graph=graph)
            if r.ok and len(r.trial_seconds) > 1
        ]
        if not cells:
            continue
        variations = [cell.variation for cell in cells]
        rows.append(
            {
                "Graph": graph,
                "Cells": len(cells),
                "Mean CV": round(sum(variations) / len(variations), 4),
                "Max CV": round(max(variations), 4),
            }
        )
    return rows


def failure_rows(results: ResultSet) -> list[dict[str, object]]:
    """The failure table: one row per errored/timed-out cell.

    Pollard & Norris's comparison methodology records failed cells rather
    than dropping them; this is the table the runner's fault isolation
    reports into (empty when every cell ran clean).
    """
    rows = []
    for result in results.failures():
        rows.append(
            {
                "Framework": result.framework,
                "Kernel": KERNEL_LABELS.get(result.kernel, result.kernel),
                "Graph": result.graph,
                "Mode": result.mode.value,
                "Status": result.status,
                "Error": result.error,
            }
        )
    return rows


def trial_statistics_rows(results: ResultSet) -> list[dict[str, object]]:
    """Per-cell trial statistics: p50/p95 and coefficient of variation.

    The GAP suite mandates per-trial reporting; the averaged Table IV/V
    cells hide it, so this table restores it for every ok cell.
    """
    rows = []
    for result in results:
        if not result.ok or not result.trial_seconds:
            continue
        rows.append(
            {
                "Framework": result.framework,
                "Kernel": KERNEL_LABELS.get(result.kernel, result.kernel),
                "Graph": result.graph,
                "Mode": result.mode.value,
                "Trials": len(result.trial_seconds),
                "p50 (s)": round(result.p50_seconds, 4),
                "p95 (s)": round(result.p95_seconds, 4),
                "CV": round(result.variation, 4),
            }
        )
    return rows


def render(rows: list[dict[str, object]], title: str = "") -> str:
    """Align a row list into an ASCII table."""
    if not rows:
        return f"{title}\n(no rows)\n" if title else "(no rows)\n"
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(c).ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            " | ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns)
        )
    return "\n".join(lines) + "\n"
