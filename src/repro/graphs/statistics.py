"""Extended topology statistics beyond the Table I characterization.

The paper's workload-characterization companion (Beamer et al., IISWC'15)
argues topology drives graph-kernel behaviour more than the algorithm;
this module provides the descriptive statistics that argument rests on:
degree assortativity (hub-hub vs hub-leaf mixing), reciprocity of
directed graphs, and a global clustering summary.  Used by the examples and by the
generator tests to validate that the analogs sit in the right regimes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph

__all__ = [
    "assortativity",
    "reciprocity",
    "global_clustering",
    "TopologySummary",
    "summarize",
]


def assortativity(graph: CSRGraph) -> float:
    """Pearson correlation of endpoint degrees over all edges.

    Negative values (hubs connect to leaves) typify synthetic power-law
    generators like Kronecker; road networks sit near zero.
    """
    src, dst = graph.edge_array()
    if src.size < 2:
        return 0.0
    x = graph.out_degrees[src].astype(np.float64)
    y = graph.in_degrees[dst].astype(np.float64) if graph.directed else graph.out_degrees[dst].astype(np.float64)
    if x.std() == 0 or y.std() == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def reciprocity(graph: CSRGraph) -> float:
    """Fraction of directed edges whose reverse also exists.

    1.0 for undirected storage; road networks are high (two-way streets),
    follow graphs low.
    """
    if not graph.directed:
        return 1.0
    src, dst = graph.edge_array()
    if src.size == 0:
        return 0.0
    n = np.int64(graph.num_vertices)
    keys = src * n + dst
    reverse = dst * n + src
    keys.sort()
    found = np.searchsorted(keys, reverse)
    found[found == keys.size] = 0
    return float((keys[found] == reverse).mean())


def global_clustering(graph: CSRGraph) -> float:
    """Transitivity: 3 * triangles / wedges on the symmetrized graph."""
    undirected = graph.to_undirected() if graph.directed else graph
    degrees = undirected.out_degrees.astype(np.float64)
    wedges = float((degrees * (degrees - 1) / 2).sum())
    if wedges == 0:
        return 0.0
    from ..gapbs.tc import triangle_count

    triangles = triangle_count(undirected)
    return 3.0 * triangles / wedges


@dataclass(frozen=True)
class TopologySummary:
    """The extended statistics bundle for one graph."""

    name: str
    assortativity: float
    reciprocity: float
    global_clustering: float
    max_out_degree: int
    degree_percentiles: tuple[float, float, float]  # p50, p90, p99

    def as_row(self) -> dict[str, object]:
        """Render as a printable summary row."""
        p50, p90, p99 = self.degree_percentiles
        return {
            "Name": self.name,
            "Assortativity": round(self.assortativity, 3),
            "Reciprocity": round(self.reciprocity, 3),
            "Clustering": round(self.global_clustering, 4),
            "Max degree": self.max_out_degree,
            "p50/p90/p99 degree": f"{p50:.0f}/{p90:.0f}/{p99:.0f}",
        }


def summarize(graph: CSRGraph, name: str = "graph") -> TopologySummary:
    """Compute the full extended-statistics bundle."""
    degrees = graph.out_degrees
    percentiles = tuple(np.percentile(degrees, [50, 90, 99])) if degrees.size else (0.0, 0.0, 0.0)
    return TopologySummary(
        name=name,
        assortativity=assortativity(graph),
        reciprocity=reciprocity(graph),
        global_clustering=global_clustering(graph),
        max_out_degree=int(degrees.max()) if degrees.size else 0,
        degree_percentiles=percentiles,  # type: ignore[arg-type]
    )
