"""Output verification for the six GAP kernels.

The paper's discussion section calls for "more formally specified
verification and validation procedures" for GAP; this module is that, for
the reproduction.  Each verifier has two halves:

* **the oracle** — a pure function of the *input* that shares no code with
  any framework: a plain frontier-sweep BFS (:func:`reference_bfs_depths`),
  SciPy's compiled Dijkstra (:func:`sssp_oracle`) and connected components
  (:func:`cc_oracle`), a batched level-synchronous Brandes on
  ``scipy.sparse`` (:func:`bc_oracle`), the sparse-matrix triangle identity
  (:func:`tc_oracle`).  PageRank needs none: its check *is* the fixed-point
  equations.
* **the check** — ``verify_<kernel>`` compares one output with the oracle's
  answer and raises :class:`VerificationError` with a specific message on
  the first violated rule.  Called without an answer it computes one.

The six frameworks × two modes of one (graph, kernel) are handed the same
input and the same trial-0 source, so they share one oracle answer.
:func:`verify_output` — the one kernel → verifier dispatch, used by the
runner and by the differential test matrix — memoizes that answer on the
:class:`~repro.core.runner.GraphCase` it was computed from: the first cell
of a group pays oracle + check, the rest pay the check only.  Only the
answer is kept, never a verdict, and only O(n) of it (depths, distances,
labels, scores, one integer), read-only, for as long as the case lives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from ..errors import VerificationError
from ..graphs import CSRGraph

if TYPE_CHECKING:
    from .runner import GraphCase

__all__ = [
    "verify_output",
    "verify_bfs",
    "verify_sssp",
    "verify_cc",
    "verify_pr",
    "verify_bc",
    "verify_tc",
    "reference_bfs_depths",
    "sssp_oracle",
    "cc_oracle",
    "bc_oracle",
    "tc_oracle",
]


def _to_scipy(graph: CSRGraph, weighted: bool) -> sp.csr_matrix:
    data = (
        graph.weights.astype(np.float64)
        if (weighted and graph.weights is not None)
        else np.ones(graph.num_edges)
    )
    return sp.csr_matrix(
        (data, graph.indices, graph.indptr),
        shape=(graph.num_vertices, graph.num_vertices),
    )


# ----------------------------------------------------------------------
# Oracles: functions of the input only
# ----------------------------------------------------------------------


def reference_bfs_depths(graph: CSRGraph, source: int) -> np.ndarray:
    """Oracle BFS depths over out-edges (frontier sweep, no optimizations)."""
    n = graph.num_vertices
    depths = np.full(n, -1, dtype=np.int64)
    depths[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        starts = graph.indptr[frontier]
        ends = graph.indptr[frontier + 1]
        chunks = [graph.indices[s:e] for s, e in zip(starts, ends) if e > s]
        if not chunks:
            break
        targets = np.unique(np.concatenate(chunks))
        fresh = targets[depths[targets] < 0]
        depths[fresh] = depth
        frontier = fresh
    return depths


def sssp_oracle(graph: CSRGraph, source: int) -> np.ndarray:
    """Oracle shortest-path distances from ``source``: SciPy's Dijkstra."""
    return csgraph.dijkstra(_to_scipy(graph, weighted=True), indices=source)


def cc_oracle(graph: CSRGraph) -> np.ndarray:
    """Oracle weak-component id per vertex (dense ``0 .. k-1``), via SciPy."""
    _, labels = csgraph.connected_components(
        _to_scipy(graph, weighted=False), directed=graph.directed, connection="weak"
    )
    return labels


def bc_oracle(graph: CSRGraph, roots: np.ndarray) -> np.ndarray:
    """Oracle BC scores: level-synchronous Brandes with the roots batched.

    Unnormalised dependencies summed over ``roots`` on the unweighted
    directed graph, a root's own dependency zeroed — the quantity every
    framework's ``betweenness`` reports.  The k roots advance together as
    one n × k dense block: the forward sweep is ``Aᵀ @ frontier`` per level
    (accumulating path counts σ and depth), the backward sweep
    ``A @ ((1 + δ) / σ)`` per level.  Built on ``scipy.sparse`` alone; it
    imports nothing from any framework or from ``repro.la``.
    """
    roots = np.asarray(roots, dtype=np.int64)
    n, k = graph.num_vertices, roots.size
    out_adj = _to_scipy(graph, weighted=False)
    in_adj = sp.csr_matrix(
        (out_adj.data, graph.in_indices, graph.in_indptr), shape=(n, n)
    )
    columns = np.arange(k)

    depth = np.full((n, k), -1, dtype=np.int64)
    sigma = np.zeros((n, k))
    depth[roots, columns] = 0
    sigma[roots, columns] = 1.0
    frontier = sigma.copy()
    level = 0
    while True:
        arriving = in_adj @ frontier
        fresh = (arriving > 0) & (depth < 0)
        if not fresh.any():
            break
        level += 1
        depth[fresh] = level
        frontier = np.where(fresh, arriving, 0.0)
        sigma += frontier

    delta = np.zeros((n, k))
    for below in range(level, 0, -1):
        on_level = depth == below
        share = np.zeros((n, k))
        share[on_level] = (1.0 + delta[on_level]) / sigma[on_level]
        parents = depth == below - 1
        delta[parents] += sigma[parents] * (out_adj @ share)[parents]
    delta[roots, columns] = 0.0
    return delta.sum(axis=1)


def tc_oracle(graph: CSRGraph) -> int:
    """Oracle triangle count on the symmetrised graph: Σ (L·L)∘L.

    ``L`` is the strict lower triangle of the adjacency matrix, so each
    triangle ``i > j > k`` is counted once — trace(A³)/6 at a sixth of the
    product.
    """
    undirected = graph.to_undirected() if graph.directed else graph
    lower = sp.tril(_to_scipy(undirected, weighted=False), k=-1, format="csr")
    return int(round((lower @ lower).multiply(lower).sum()))


# ----------------------------------------------------------------------
# Checks: one output against the oracle's answer
# ----------------------------------------------------------------------


def _has_edges(graph: CSRGraph, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Whether each ``src[i] -> dst[i]`` is an edge.

    :meth:`CSRGraph.has_edge` for many pairs at once: a lower-bound binary
    search of ``dst[i]`` in ``src[i]``'s sorted adjacency row, all pairs
    stepping together.
    """
    lo = graph.indptr[src]
    hi = end = graph.indptr[src + 1]
    last = graph.indices.size - 1
    for _ in range(int((hi - lo).max()).bit_length()):
        mid = (lo + hi) >> 1
        right = (lo < hi) & (graph.indices[np.minimum(mid, last)] < dst)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)  # a closed interval has mid == hi
    return (lo < end) & (graph.indices[np.minimum(lo, last)] == dst)


def verify_bfs(
    graph: CSRGraph,
    source: int,
    parents: np.ndarray,
    depths: np.ndarray | None = None,
) -> None:
    """GAP BFS rules: valid parent tree covering exactly the reachable set.

    ``depths`` is :func:`reference_bfs_depths` of ``(graph, source)``.
    """
    if depths is None:
        depths = reference_bfs_depths(graph, source)
    if parents[source] != source:
        raise VerificationError("BFS: parent[source] must be source")
    reached = parents >= 0
    if not np.array_equal(reached, depths >= 0):
        raise VerificationError("BFS: reachable set mismatch with oracle")
    others = np.flatnonzero(reached)
    others = others[others != source]
    if others.size == 0:
        return
    parent_ids = parents[others]
    if not np.array_equal(depths[others], depths[parent_ids] + 1):
        raise VerificationError("BFS: parent not one level above child")
    # Every (parent, child) pair must be a real edge.
    if not _has_edges(graph, parent_ids, others).all():
        raise VerificationError("BFS: parent edge missing from graph")


def verify_sssp(
    graph: CSRGraph,
    source: int,
    dist: np.ndarray,
    oracle: np.ndarray | None = None,
) -> None:
    """Distances must equal Dijkstra's exactly (integer weights).

    ``oracle`` is :func:`sssp_oracle` of ``(graph, source)``.
    """
    if oracle is None:
        oracle = sssp_oracle(graph, source)
    mismatched = ~np.isclose(dist, oracle, rtol=0, atol=1e-9)
    if mismatched.any():
        worst = int(np.flatnonzero(mismatched)[0])
        raise VerificationError(
            f"SSSP: distance mismatch at vertex {worst}: "
            f"{dist[worst]} vs oracle {oracle[worst]}"
        )


def verify_cc(
    graph: CSRGraph, labels: np.ndarray, oracle: np.ndarray | None = None
) -> None:
    """Labels must induce exactly the weak-connectivity partition.

    ``oracle`` is :func:`cc_oracle` of ``graph``.
    """
    if oracle is None:
        oracle = cc_oracle(graph)
    # Same partition <=> the (label, component) pairs biject: there are as
    # many distinct pairs as distinct labels and as distinct components.
    distinct, ours = np.unique(labels, return_inverse=True)
    components = int(oracle.max()) + 1 if oracle.size else 0
    pairs = np.unique(ours.astype(np.int64) * components + oracle).size
    if pairs > distinct.size:
        raise VerificationError("CC: one label spans two oracle components")
    if pairs > components:
        raise VerificationError("CC: one oracle component got two labels")


def verify_pr(
    graph: CSRGraph,
    scores: np.ndarray,
    tolerance: float = 1e-4,
) -> None:
    """Scores must satisfy the PageRank equations to ~the run tolerance."""
    # Imported here: the service imports this module and never a kernel.
    from ..la.spmv import DAMPING

    if not np.isfinite(scores).all():
        raise VerificationError("PR: non-finite score")
    if (scores < 0).any():
        raise VerificationError("PR: negative score")
    n = graph.num_vertices
    out_degrees = graph.out_degrees.astype(np.float64)
    safe = np.where(out_degrees > 0, out_degrees, 1.0)
    contrib = np.where(out_degrees > 0, scores / safe, 0.0)
    gathered = contrib[graph.in_indices]
    prefix = np.concatenate([[0.0], np.cumsum(gathered)])
    pulled = prefix[graph.in_indptr[1:]] - prefix[graph.in_indptr[:-1]]
    expected = (1.0 - DAMPING) / n + DAMPING * pulled
    residual = float(np.abs(expected - scores).sum())
    if residual > 20.0 * tolerance:
        raise VerificationError(
            f"PR: fixed-point residual {residual:.2e} exceeds bound"
        )


def verify_bc(
    reference_scores: np.ndarray, scores: np.ndarray, rtol: float = 1e-6
) -> None:
    """Scores must match ``reference_scores`` (:func:`bc_oracle`'s) to ``rtol``."""
    magnitude = max(1.0, float(np.abs(reference_scores).max()))
    worst = float(np.abs(scores - reference_scores).max())
    if worst > rtol * magnitude:
        raise VerificationError(
            f"BC: max deviation {worst:.3e} from reference exceeds tolerance"
        )


def verify_tc(graph: CSRGraph, count: int, oracle: int | None = None) -> None:
    """Triangle count must equal ``oracle``, :func:`tc_oracle` of ``graph``."""
    if oracle is None:
        oracle = tc_oracle(graph)
    if count != oracle:
        raise VerificationError(f"TC: counted {count}, oracle says {oracle}")


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------


def _memoized(case: "GraphCase", key: tuple, oracle: Callable[..., object], *args):
    """``case``'s answer under ``key``: ``oracle(*args)``, computed on first use.

    No lock: two threads sharing a case may both compute the same answer
    and one assignment wins — a duplicate computation, not a wrong one.
    """
    answer = case.oracles.get(key)
    if answer is None:
        answer = oracle(*args)
        if isinstance(answer, np.ndarray):
            answer.setflags(write=False)
        case.oracles[key] = answer
    return answer


def verify_output(
    kernel: str,
    case: "GraphCase",
    output,
    source: int | None = None,
    sources: np.ndarray | None = None,
    tolerance: float = 1e-4,
) -> None:
    """Check one kernel output of ``case`` against the kernel's oracle.

    ``source`` is the BFS/SSSP source and ``sources`` the BC root batch the
    output was computed for; ``tolerance`` is the PageRank run tolerance.
    The oracle's answer is computed by the first call that needs it and
    kept on ``case``; the check itself runs in full on every call.
    """
    if kernel == "bfs":
        depths = _memoized(
            case, ("bfs", source), reference_bfs_depths, case.graph, source
        )
        verify_bfs(case.graph, source, output, depths)
    elif kernel == "sssp":
        oracle = _memoized(case, ("sssp", source), sssp_oracle, case.weighted, source)
        verify_sssp(case.weighted, source, output, oracle)
    elif kernel == "cc":
        labels = _memoized(case, ("cc", None), cc_oracle, case.graph)
        verify_cc(case.graph, output, labels)
    elif kernel == "pr":
        verify_pr(case.graph, output, tolerance=tolerance)
    elif kernel == "bc":
        roots = tuple(int(root) for root in sources)
        scores = _memoized(case, ("bc", roots), bc_oracle, case.graph, sources)
        verify_bc(scores, output)
    elif kernel == "tc":
        count = _memoized(case, ("tc", None), tc_oracle, case.undirected)
        verify_tc(case.undirected, int(output), count)
    else:
        raise ValueError(f"no verifier for kernel {kernel!r}")
