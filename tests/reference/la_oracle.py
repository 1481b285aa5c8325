"""The oracle for ``repro.la``: the formulations the kernels used before the port.

Each function here carries the name and signature of the ``repro.la``
primitive it judges and is, verbatim, the hot-loop code the framework
kernels ran before they were moved onto the shared tier: three-``np.repeat``
gathers with no full-sweep fast path, ``np.unique`` first-writer claims, a
gather + prefix-sum (+, x) product, row-at-a-time (min, +), a per-vertex
triangle loop, GKC's wedge batches closed by one binary search of the
sorted edge keys, a pull step that always scans the whole in-adjacency,
Brandes one root at a time (GAP's forward and saved-successor backward,
Galois' re-expanding backward), and the four kernel bodies that existed
three to five times before each became one: Galois' copy of the
direction-optimizing loop, GAP's Δ-stepping with its own relax, Galois'
Afforest with its edge-blocked finish, and Galois' prefix-sum Gauss-Seidel
sweeps, as the one PageRank iteration (every contribution recomputed from
the scores before each block) and its gather + prefix-sum row blocks
(with GAP's ``segment_sums``).  Like the ``repro.la`` bodies, the
oracle bodies report their work to ``counters`` and return only their
output; the primitives return what they examined.
Unit tests call ``la_oracle.primitive(x)`` beside ``primitive(x)``;
:func:`oracle_engine` runs a *whole kernel* on these formulations, which
is how ``tests/test_la_differential.py`` proves the port changed
wall-clock only and how ``benchmarks/bench_kernel_substrate.py`` measures
by how much.

Nothing under ``src/`` knows this module exists: production has one
engine, and no flag, environment variable or argument selects another.
"""

from __future__ import annotations

import contextlib
import sys
import types
from typing import Callable, Collection, Iterator

import numpy as np

from repro import counters
from repro.frameworks import EXTENDED_FRAMEWORK_NAMES, get
from repro.la import direction, gather, hooking, intersect, spmv, sweep
from repro.la import frontier as frontier_module
from repro.la.direction import DirectionOptimizer, Step
from repro.la.hooking import compress, converge, hook_pass, majority_component

__all__ = [
    "flat_edge_index",
    "gather_edges",
    "gather_edges_weighted",
    "claim_first_writer",
    "first_occurrence_mask",
    "unique_ids",
    "relax",
    "delta_stepping",
    "direction_optimizing_traversal",
    "afforest",
    "converge_in_blocks",
    "segment_sums",
    "row_blocks",
    "pagerank",
    "plus_times_operator",
    "spmv_min_plus",
    "masked_pull_claim",
    "count_forward_triangles",
    "count_closing",
    "brandes_sweep",
    "brandes_backward",
    "oracle_engine",
]


# --- la.gather ---------------------------------------------------------------

def flat_edge_index(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=rows.dtype)
        return empty, np.empty(0, dtype=np.int64), 0
    owners = np.repeat(rows, counts)
    offsets = np.arange(total, dtype=np.int64)
    row_begin = np.repeat(np.cumsum(counts) - counts, counts)
    flat = np.repeat(starts, counts) + (offsets - row_begin)
    return owners, flat, total


def gather_edges(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    owners, flat, total = flat_edge_index(indptr, rows)
    if total == 0:
        return owners, np.empty(0, dtype=indices.dtype)
    return owners, indices[flat]


def gather_edges_weighted(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    owners, flat, total = flat_edge_index(indptr, rows)
    if total == 0:
        return owners, np.empty(0, dtype=indices.dtype), np.empty(0, dtype=weights.dtype)
    return owners, indices[flat], weights[flat]


# --- la.frontier -------------------------------------------------------------

def claim_first_writer(
    state: np.ndarray, keys: np.ndarray, values: np.ndarray, num_vertices: int
) -> np.ndarray:
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    fresh, first = np.unique(keys, return_index=True)
    state[fresh] = values[first]
    return fresh


def first_occurrence_mask(keys: np.ndarray, num_vertices: int) -> np.ndarray:
    if keys.size == 0:
        return np.zeros(0, dtype=bool)
    _, first = np.unique(keys, return_index=True)
    mask = np.zeros(keys.size, dtype=bool)
    mask[first] = True
    return mask


def unique_ids(keys: np.ndarray, num_vertices: int) -> np.ndarray:
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.unique(keys)


# GAP's ``_relax`` and ``delta_stepping`` as ``gapbs/sssp.py`` ran them (its
# ``bucket_fusion=False`` branch was, bit for bit, the loops of
# ``galois.sync_delta_stepping``, ``gkc_sssp`` and ``nwgraph_sssp``), counting
# into ``counters`` as it went.

def relax(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    frontier: np.ndarray,
    dist: np.ndarray,
) -> tuple[np.ndarray, int]:
    sources, targets, edge_weights = gather_edges_weighted(indptr, indices, weights, frontier)
    examined = int(targets.size)
    if examined == 0:
        return np.empty(0, dtype=np.int64), 0
    candidate = dist[sources] + edge_weights
    better = candidate < dist[targets]
    targets, candidate = targets[better], candidate[better]
    return frontier_module.relax_minimum(dist, targets, candidate, dist.size), examined


def delta_stepping(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    source: int,
    delta: int,
    fusion_threshold: int = 0,
) -> np.ndarray:
    n = indptr.size - 1
    dist = np.full(n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    buckets: dict[int, list[np.ndarray]] = {0: [np.array([source], dtype=np.int64)]}

    while buckets:
        current = min(buckets)
        pending = buckets.pop(current)
        while pending:
            counters.add_round()
            members = unique_ids(np.concatenate(pending), n)
            pending = []
            # Lazy deletion: keep only vertices still in this bucket.
            in_bucket = (dist[members] // delta).astype(np.int64) == current
            frontier = members[in_bucket]
            if frontier.size == 0:
                continue
            improved, edges = relax(indptr, indices, weights, frontier, dist)
            counters.add_edges(edges)
            if improved.size == 0:
                continue
            new_bucket = (dist[improved] // delta).astype(np.int64)
            same = new_bucket == current
            refills = improved[same]
            others, other_buckets = improved[~same], new_bucket[~same]
            for later in np.unique(other_buckets):
                buckets.setdefault(int(later), []).append(others[other_buckets == later])
            if refills.size == 0:
                continue
            if refills.size <= fusion_threshold:
                # Fused: drain the refill right now without a global round.
                while refills.size and refills.size <= fusion_threshold:
                    counters.note("fused_rounds")
                    improved, edges = relax(indptr, indices, weights, refills, dist)
                    counters.add_edges(edges)
                    nb = (dist[improved] // delta).astype(np.int64)
                    same = nb == current
                    others, other_buckets = improved[~same], nb[~same]
                    for later in np.unique(other_buckets):
                        buckets.setdefault(int(later), []).append(others[other_buckets == later])
                    refills = improved[same]
                if refills.size:
                    pending.append(refills)
            else:
                pending.append(refills)
    return dist


# --- la.spmv -----------------------------------------------------------------

def plus_times_operator(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    def reference(x: np.ndarray) -> np.ndarray:
        gathered = x[indices] if data is None else x[indices] * data
        prefix = np.concatenate([[0.0], np.cumsum(gathered)])
        return prefix[indptr[1:]] - prefix[indptr[:-1]]

    return reference


def spmv_min_plus(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    num_rows = indptr.size - 1
    y = np.full(num_rows, np.inf, dtype=np.float64)
    if indices.size == 0:
        return y
    terms = weights + x[indices]
    occupied = np.flatnonzero(indptr[1:] > indptr[:-1])
    for row in occupied:
        y[row] = terms[indptr[row]: indptr[row + 1]].min()
    return y


def masked_pull_claim(
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    unvisited: np.ndarray,
    frontier_bits: np.ndarray,
    parents: np.ndarray,
    early_exit: bool = False,
) -> tuple[np.ndarray, int]:
    """Always the full scan: the pre-port pull had no early exit, so
    ``early_exit`` is accepted and ignored (parents are identical either
    way; only ``edges_examined`` differs, by design)."""
    if unvisited.size == 0:
        return np.empty(0, dtype=np.int64), 0
    sources, targets = gather_edges(in_indptr, in_indices, unvisited)
    examined = int(targets.size)
    hits = frontier_bits[targets]
    sources, targets = sources[hits], targets[hits]
    if sources.size == 0:
        return np.empty(0, dtype=np.int64), examined
    fresh = claim_first_writer(parents, sources, targets, parents.size)
    return fresh, examined


def segment_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row sums of a CSR-gathered value array (empty rows give 0)."""
    prefix = np.concatenate([[0.0], np.cumsum(values)])
    return prefix[indptr[1:]] - prefix[indptr[:-1]]


def row_blocks(
    in_indptr: np.ndarray, in_indices: np.ndarray, bounds: np.ndarray
) -> list[tuple[int, int, Callable[[np.ndarray], np.ndarray]]]:
    """Galois' blocks as they ran: per block, gather the in-neighbors'
    contributions and prefix-sum them into row sums."""
    blocks = []
    for b in range(bounds.size - 1):
        lo, hi = int(bounds[b]), int(bounds[b + 1])
        if lo == hi:
            continue

        def pull(contrib: np.ndarray, lo: int = lo, hi: int = hi) -> np.ndarray:
            gathered = in_indices[in_indptr[lo]: in_indptr[hi]]
            counters.add_edges(gathered.size)
            return segment_sums(contrib[gathered], in_indptr[lo: hi + 1] - in_indptr[lo])

        blocks.append((lo, hi, pull))
    return blocks


def pagerank(
    out_degrees: np.ndarray,
    blocks: list[tuple[int, int, Callable[[np.ndarray], np.ndarray]]],
    tolerance: float,
    max_iterations: int,
) -> np.ndarray:
    """``galois.gauss_seidel_pagerank``'s sweep as it ran: before each
    block, recompute every contribution from the current scores."""
    n = out_degrees.size
    base = (1.0 - spmv.DAMPING) / n
    scores = np.full(n, 1.0 / n, dtype=np.float64)
    out_degrees = out_degrees.astype(np.float64)
    has_out = out_degrees > 0
    safe_degrees = np.where(has_out, out_degrees, 1.0)

    for _ in range(max_iterations):
        counters.add_iteration()
        previous = scores.copy()
        for lo, hi, pull in blocks:
            contrib = np.where(has_out, scores / safe_degrees, 0.0)
            scores[lo:hi] = base + spmv.DAMPING * pull(contrib)
        change = float(np.abs(scores - previous).sum())
        if change < tolerance:
            break
    return scores


# --- la.direction ------------------------------------------------------------

def direction_optimizing_traversal(
    indptr: np.ndarray,
    indices: np.ndarray,
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    source: int,
    policy: DirectionOptimizer,
    pull_early_exit: bool = False,
) -> tuple[np.ndarray, list[Step]]:
    """``galois.sync_bfs`` as it ran (``gkc_bfs`` and GAP's loop were the
    same text): its inline ALPHA / BETA tests asked of ``policy``, and each
    step appended to the record where it used to ``add_round``; the record
    is reported at the end."""
    n = indptr.size - 1
    parents = np.full(n, -1, dtype=np.int64)
    parents[source] = source
    frontier = np.array([source], dtype=np.int64)
    out_degrees = np.diff(indptr)
    steps: list[Step] = []

    while frontier.size:
        scout = policy.scout_count(out_degrees, frontier)
        policy.charge(scout)
        if policy.wants_pull(scout, frontier.size):
            policy.switches += 1
            bits = np.zeros(n, dtype=bool)
            bits[frontier] = True
            while frontier.size and not policy.frontier_is_small(frontier.size):
                unvisited = np.flatnonzero(parents < 0)
                fresh, examined = masked_pull_claim(
                    in_indptr, in_indices, unvisited, bits, parents,
                    early_exit=pull_early_exit,
                )
                steps.append(Step("pull", int(frontier.size), examined))
                if fresh.size == 0:
                    frontier = np.empty(0, dtype=np.int64)
                    break
                frontier = fresh
                bits = np.zeros(n, dtype=bool)
                bits[frontier] = True
            if frontier.size == 0:
                break
        srcs, tgts = gather_edges(indptr, indices, frontier)
        steps.append(Step("push", int(frontier.size), int(tgts.size)))
        unclaimed = parents[tgts] < 0
        srcs, tgts = srcs[unclaimed], tgts[unclaimed]
        if tgts.size == 0:
            break
        frontier = claim_first_writer(parents, tgts, srcs, n)
    counters.add_steps(steps)
    return parents, steps


# --- la.hooking --------------------------------------------------------------
# ``galois_afforest`` as ``galois/cc.py`` ran it (``gapbs.afforest`` and
# ``nwgraph_cc`` were its ``edge_blocking=False`` path), the finish phase an
# argument where it was a flag.

def converge_in_blocks(comp: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
    block_edges = hooking.EDGE_BLOCK
    if src.size > block_edges:
        # Blocked finish: converge block by block; compressing between
        # blocks shortens the chains later blocks must walk.
        for start in range(0, src.size, block_edges):
            counters.add_round()
            converge(comp, src[start: start + block_edges], dst[start: start + block_edges])
    # A final global pass guarantees cross-block merges are complete.
    converge(comp, src, dst)


def afforest(graph, seed: int = 0, finish=converge) -> np.ndarray:
    n = graph.num_vertices
    comp = np.arange(n, dtype=np.int64)

    for k in range(hooking.NEIGHBOR_ROUNDS):
        counters.add_round()
        has_kth = graph.out_degrees > k
        src = np.flatnonzero(has_kth)
        dst = graph.indices[graph.indptr[src] + k]
        hook_pass(comp, src, dst)
    compress(comp)

    rng = np.random.default_rng(seed)
    giant = majority_component(comp, rng)
    outside = np.flatnonzero(comp != giant)
    counters.note("vertices_outside_giant", float(outside.size))
    if outside.size == 0:
        return comp

    src_out, dst_out = gather_edges(graph.indptr, graph.indices, outside)
    if not graph.directed:
        src, dst = src_out, dst_out
    else:
        src_in, dst_in = gather_edges(graph.in_indptr, graph.in_indices, outside)
        src, dst = np.concatenate([src_out, src_in]), np.concatenate([dst_out, dst_in])
    finish(comp, src, dst)
    compress(comp)
    return comp


# --- la.intersect ------------------------------------------------------------

def count_forward_triangles(indptr: np.ndarray, indices: np.ndarray) -> int:
    total = 0
    num_vertices = indptr.size - 1
    for u in range(num_vertices):
        row = indices[indptr[u]: indptr[u + 1]]
        if row.size < 2:
            continue
        # Gather the forward lists of all forward neighbors of u at once.
        starts = indptr[row]
        ends = indptr[row + 1]
        chunks = [indices[s:e] for s, e in zip(starts, ends) if e > s]
        if not chunks:
            continue
        targets = np.concatenate(chunks)
        counters.add_edges(targets.size + row.size)
        position = np.searchsorted(row, targets)
        position[position == row.size] = 0
        total += int((row[position] == targets).sum())
    return total


def _count_batch(
    edge_keys: np.ndarray,
    anchor: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    pool: np.ndarray,
    n: int,
) -> int:
    total_wedges = int(lengths.sum())
    if total_wedges == 0:
        return 0
    anchors = np.repeat(anchor, lengths)
    offsets = np.arange(total_wedges, dtype=np.int64)
    begin = np.repeat(np.cumsum(lengths) - lengths, lengths)
    flat = np.repeat(starts, lengths) + (offsets - begin)
    tails = pool[flat]
    keys = anchors * np.int64(n) + tails
    position = np.searchsorted(edge_keys, keys)
    position[position == edge_keys.size] = 0
    return int((edge_keys[position] == keys).sum())


def count_closing(
    indptr: np.ndarray,
    indices: np.ndarray,
    anchors: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    block_wedges: int,
) -> int:
    # GKC's pre-port batch loop; the sorted key list is the CSR itself.
    n = indptr.size - 1
    num_groups = int(anchors.size)
    if num_groups == 0 or indices.size == 0:
        return 0
    owners = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    edge_keys = owners * np.int64(n) + indices
    total = 0
    cost = np.concatenate([[0], np.cumsum(lengths)])
    start_edge = 0
    while start_edge < num_groups:
        stop_edge = int(
            np.searchsorted(cost, cost[start_edge] + block_wedges, side="right")
        )
        stop_edge = min(max(stop_edge, start_edge + 1), num_groups)
        sel = slice(start_edge, stop_edge)
        total += _count_batch(
            edge_keys, anchors[sel], starts[sel], lengths[sel], indices, n
        )
        start_edge = stop_edge
    return total


# --- la.sweep ----------------------------------------------------------------
# The three per-root loops as ``gapbs/bc.py`` and ``galois/bc.py`` ran them,
# reporting into ``counters`` as they did; the two bodies below run them
# root by root.

def _forward(
    indptr: np.ndarray, indices: np.ndarray, source: int
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], list[tuple[np.ndarray, np.ndarray]]]:
    n = indptr.size - 1
    depth = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    depth[source] = 0
    sigma[source] = 1.0
    frontier = np.array([source], dtype=np.int64)
    levels: list[np.ndarray] = [frontier]
    dag_edges: list[tuple[np.ndarray, np.ndarray]] = []

    level = 0
    while frontier.size:
        counters.add_round()
        sources, targets = gather_edges(indptr, indices, frontier)
        counters.add_edges(targets.size)
        undiscovered = depth[targets] < 0
        depth[targets[undiscovered]] = level + 1
        on_next = depth[targets] == level + 1
        succ_src, succ_dst = sources[on_next], targets[on_next]
        dag_edges.append((succ_src, succ_dst))
        np.add.at(sigma, succ_dst, sigma[succ_src])
        frontier = unique_ids(targets[undiscovered], n)
        if frontier.size:
            levels.append(frontier)
        level += 1
    return depth, sigma, levels, dag_edges


def _replay_successors(
    sigma: np.ndarray,
    levels: list[np.ndarray],
    dag_edges: list[tuple[np.ndarray, np.ndarray]],
    scores: np.ndarray,
    source: int,
) -> None:
    delta = np.zeros_like(sigma)
    for level in range(len(levels) - 2, -1, -1):
        counters.add_round()
        succ_src, succ_dst = dag_edges[level]
        counters.add_edges(succ_src.size)
        if succ_src.size:
            contributions = (sigma[succ_src] / sigma[succ_dst]) * (1.0 + delta[succ_dst])
            np.add.at(delta, succ_src, contributions)
    delta[source] = 0.0
    scores += delta


def _reexpand_levels(
    indptr: np.ndarray,
    indices: np.ndarray,
    depth: np.ndarray,
    sigma: np.ndarray,
    levels: list[np.ndarray],
    source: int,
    scores: np.ndarray,
) -> None:
    delta = np.zeros_like(sigma)
    for level_index in range(len(levels) - 2, -1, -1):
        counters.add_round()
        members = levels[level_index]
        # Re-expand and re-filter: the work GAP's successor bitmap skips.
        srcs, tgts = gather_edges(indptr, indices, members)
        counters.add_edges(tgts.size)
        succ = depth[tgts] == depth[srcs] + 1
        srcs, tgts = srcs[succ], tgts[succ]
        if srcs.size:
            contributions = (sigma[srcs] / sigma[tgts]) * (1.0 + delta[tgts])
            np.add.at(delta, srcs, contributions)
    delta[source] = 0.0
    scores += delta


def brandes_sweep(
    indptr: np.ndarray,
    indices: np.ndarray,
    roots: np.ndarray,
    saved_successors: bool,
) -> np.ndarray:
    scores = np.zeros(indptr.size - 1, dtype=np.float64)
    for source in np.asarray(roots, dtype=np.int64):
        depth, sigma, levels, dag_edges = _forward(indptr, indices, int(source))
        if saved_successors:
            _replay_successors(sigma, levels, dag_edges, scores, int(source))
        else:
            _reexpand_levels(indptr, indices, depth, sigma, levels, int(source), scores)
    return scores


def brandes_backward(
    indptr: np.ndarray,
    indices: np.ndarray,
    roots: np.ndarray,
    depth: np.ndarray,
    sigma: np.ndarray,
    levels: list[np.ndarray],
    successors: list[list[tuple[np.ndarray, np.ndarray]]] | None = None,
) -> np.ndarray:
    """Un-lifts each root's slice of the forward state and runs its loop."""
    n = indptr.size - 1
    scores = np.zeros(n, dtype=np.float64)

    def own(ids: np.ndarray, base: int) -> np.ndarray:
        return (ids >= base) & (ids < base + n)

    for root, source in enumerate(np.asarray(roots, dtype=np.int64)):
        base = root * n
        mine = slice(base, base + n)
        own_levels = [lvl[own(lvl, base)] - base for lvl in levels]
        own_levels = [lvl for lvl in own_levels if lvl.size]
        if successors is None:
            _reexpand_levels(
                indptr, indices, depth[mine], sigma[mine], own_levels, int(source), scores
            )
        else:
            dag_edges = []
            for groups in successors:
                src = np.concatenate([s for s, _ in groups])
                dst = np.concatenate([d for _, d in groups])
                keep = own(src, base)
                dag_edges.append((src[keep] - base, dst[keep] - base))
            _replay_successors(sigma[mine], own_levels, dag_edges, scores, int(source))
    return scores


# --- running a whole kernel on the oracle --------------------------------------

# optimized primitive -> its oracle, keyed by function identity.
_ORACLES: dict[types.FunctionType, types.FunctionType] = {
    getattr(module, oracle.__name__): oracle
    for module, oracles in (
        (gather, (flat_edge_index, gather_edges, gather_edges_weighted)),
        (frontier_module, (claim_first_writer, first_occurrence_mask, unique_ids)),
        (frontier_module, (relax, delta_stepping)),
        (spmv, (plus_times_operator, spmv_min_plus, masked_pull_claim, row_blocks, pagerank)),
        (direction, (direction_optimizing_traversal,)),
        (hooking, (afforest, converge_in_blocks)),
        (intersect, (count_forward_triangles, count_closing)),
        (sweep, (brandes_sweep, brandes_backward)),
    )
    for oracle in oracles
}


def _bindings(
    functions: Collection[types.FunctionType],
) -> Iterator[tuple[types.ModuleType, str, types.FunctionType]]:
    """Every loaded ``repro.*`` module attribute bound to one of ``functions``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.partition(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in functions:
                yield module, attr, value


@contextlib.contextmanager
def oracle_engine() -> Iterator[None]:
    """Run the enclosed kernels on the oracle formulations.

    Rebinds, in every loaded ``repro.*`` module, each attribute that *is*
    an optimized primitive to its oracle, and puts the optimized functions
    back on exit.  Kernels reach the primitives through their module
    globals (``from ..la import gather_edges``), so this swaps the engine
    under all of them — and under the primitives' own callers inside
    ``repro.la`` (``relax_minimum`` -> ``unique_ids``).

    Every registered framework is loaded first: the registry imports
    lazily, and a module first imported *inside* the swap would copy the
    oracle into its globals for good.  The swap refuses to start when it
    found nothing to rebind (which is also what a nested call finds), and
    on exit raises if any ``repro.*`` attribute is still an oracle.

    **Inline only.**  The swap lives in this process's module objects:
    pool workers that already exist never see it and spawned ones import
    the optimized functions afresh, so use it around direct kernel calls
    (or ``run_suite`` with the inline backend), from tests and benches only.
    """
    for name in EXTENDED_FRAMEWORK_NAMES:
        get(name)
    rebound = list(_bindings(_ORACLES))
    if not rebound:
        raise RuntimeError(
            "oracle_engine() found no optimized repro.la primitive to rebind: "
            "it is already active (it does not nest)"
        )
    try:
        for module, attr, optimized in rebound:
            setattr(module, attr, _ORACLES[optimized])
        yield
    finally:
        for module, attr, optimized in rebound:
            setattr(module, attr, optimized)
        leaked = [
            f"{module.__name__}.{attr}"
            for module, attr, _ in _bindings(set(_ORACLES.values()))
        ]
        if leaked:
            raise RuntimeError(
                f"oracle still bound after oracle_engine(): {leaked} — a module "
                "first imported inside the block copied it; import it beforehand"
            )
