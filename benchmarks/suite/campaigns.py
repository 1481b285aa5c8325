"""Campaign workloads: ``matrix-serial`` and ``smallcells-pool``.

Both drive the public campaign API (``run_suite``, ``GraphCache``,
``RunArchive``) exactly as a user script would.  The untraced pass times
whole rounds from outside; the traced pass reads the cell spans the
runner already hands to a ``Telemetry`` and replays single layers on the
same inputs, so nothing under ``src/`` is touched or patched.
"""

from __future__ import annotations

import itertools
import shutil
import statistics
import time
from pathlib import Path

from harness import (
    Outcome,
    Round,
    calibrated_seconds,
    dir_bytes,
    fresh_dir,
    measure_rounds,
    run_probe,
    self_and_children_rss_mb,
    time_fresh_import,
    timed_setups,
    trace_pair,
)
from inputs import CLIENTS, KERNELS, POOL_SCALE, SETUP_REPEATS, pool_campaign_seed

#: Framework name -> the package that implements its kernels.
PACKAGE_OF = {
    "gap": "gapbs",
    "suitesparse": "lagraph",
    "galois": "galois",
    "nwgraph": "nwgraph",
    "graphit": "graphit",
    "gkc": "gkc",
}

LA_METRICS = (
    "la.gather_s",
    "la.claim_s",
    "la.spmv_plus_times_s",
    "la.spmv_min_plus_s",
    "la.pull_claim_s",
    "la.intersect_s",
)
LA_GRAPHS = ("kron", "road")


def _paper_frameworks() -> list:
    from repro.frameworks import all_frameworks

    return list(all_frameworks().values())


def _graph_names() -> list[str]:
    from repro.generators import GRAPH_NAMES

    return list(GRAPH_NAMES)


def _cell_failures(results) -> int:
    return sum(1 for result in results if not (result.ok and result.verified))


def _kernel_seconds(results) -> float:
    """Sum over cells of the median trial: the paper's timed region."""
    return sum(statistics.median(r.trial_seconds) for r in results if r.trial_seconds)


def _work_counters(results) -> dict[str, int]:
    return {
        "kernels.edges_examined": sum(r.edges_examined for r in results),
        "kernels.rounds": sum(r.rounds for r in results),
        "kernels.iterations": sum(r.iterations for r in results),
    }


def _span_phases(records: list[dict]) -> tuple[dict[str, float], list[float]]:
    """Phase sums and per-cell wall times from ``Telemetry.records()``."""
    phases = {"frameworks.prepare_s": 0.0, "core.verify_s": 0.0, "kernels.trial_s": 0.0}
    cell_walls = []
    for record in records:
        if record.get("span") != "cell":
            continue
        cell_walls.append(float(record["wall_seconds"]))
        for child in record.get("children", ()):
            if child["span"] == "prepare":
                phases["frameworks.prepare_s"] += child["wall_seconds"]
            elif child["span"] == "verify":
                phases["core.verify_s"] += child["wall_seconds"]
        phases["kernels.trial_s"] += sum(
            trial["wall_seconds"] or 0.0 for trial in record.get("trials", ())
        )
    return phases, cell_walls


def _cold_corpus(spec, cache_dir: Path):
    """Build the five-graph corpus from nothing and store it in a cache.

    Returns ``(cache, cases, build_seconds, store_seconds)``: generator
    and derived-view construction apart from the checksummed ``.npz``
    store, which is what ``build_case`` does on a cold cache.
    """
    from repro.core import GraphCase
    from repro.graphs.cache import GraphCache

    cache = GraphCache(cache_dir)
    cases = {}
    build_s = store_s = 0.0
    for name in _graph_names():
        started = time.perf_counter()
        case = cases[name] = GraphCase.build(name, scale=spec.scale, seed=spec.seed)
        built = time.perf_counter()
        cache.store_views(
            name, spec.scale, spec.seed, case.graph, case.weighted, case.undirected
        )
        build_s += built - started
        store_s += time.perf_counter() - built
    return cache, cases, build_s, store_s


# ----------------------------------------------------------------------
# matrix-serial
# ----------------------------------------------------------------------


def matrix_serial(seed: int, seconds: float, trace: bool, sizes: dict, workdir: Path) -> Outcome:
    from repro.core import BenchmarkSpec, Telemetry, run_suite
    from repro.core.comparison import agreement_summary, compare_table5

    outcome = Outcome()
    spec = BenchmarkSpec(scale=sizes["matrix_scale"], seed=seed)
    frameworks = _paper_frameworks()
    graphs = _graph_names()

    def set_up():
        """What a fresh process pays before the first timed cell."""
        time_fresh_import(workdir)
        return _cold_corpus(spec, fresh_dir(workdir, "graphs"))

    (cache, _, build_s, store_s), setups = timed_setups(set_up, 1 if trace else SETUP_REPEATS)
    # Lazy imports and first-call paths, on inputs too small to matter.
    run_suite(frameworks, graphs, KERNELS, spec=BenchmarkSpec(scale=6, seed=seed))
    telemetry = Telemetry()

    def one_round(index: int) -> Round:
        """All 360 cells; the traced pass hands its second round a Telemetry."""
        stamps: list[float] = []
        started = time.perf_counter()
        results = run_suite(
            frameworks, graphs, KERNELS, spec=spec, cache=cache,
            telemetry=telemetry if trace and index == 1 else None,
            progress=lambda _label: stamps.append(time.perf_counter()),
        )
        ended = time.perf_counter()
        stamps.append(ended)
        # progress fires as each cell starts, so consecutive stamps bound
        # one cell as the caller sees it.
        latencies = [later - earlier for earlier, later in zip(stamps, stamps[1:])]
        return Round(ended - started, latencies, results)

    if trace:
        untraced, traced, speed = trace_pair(one_round)
        rounds = [untraced, traced]
    else:
        rounds = measure_rounds(one_round, seconds)

    # -- output checks ---------------------------------------------------
    for round_ in rounds:
        outcome.attempted += len(round_.detail)
        outcome.failed += _cell_failures(round_.detail)
    counters = [_work_counters(round_.detail) for round_ in rounds]
    outcome.check(
        "work-counters-repeat",
        all(c == counters[0] for c in counters),
        "edges_examined/rounds/iterations identical in every round",
    )
    last_results = rounds[-1].detail
    agreement = agreement_summary(compare_table5(last_results))
    outcome.info.update(
        cells_per_round=len(last_results),
        kernel_s=_kernel_seconds(last_results),
        table5_agreement=agreement["direction_agreement"],
        table5_cells=agreement["cells"],
        **counters[0],
    )

    if not trace:
        outcome.report_end_to_end(setups, rounds, self_and_children_rss_mb())
        return outcome

    # -- per-layer budget from the traced round ---------------------------
    outcome.report_trace_pair(untraced, traced, speed)
    phases, _ = _span_phases(telemetry.records())
    started = time.perf_counter()
    for name in graphs:
        cache.load_views(name, spec.scale, spec.seed)
    load_s = time.perf_counter() - started
    self_s = traced.wall - load_s - sum(phases.values())
    outcome.check("runner-self-time-nonnegative", self_s >= 0.0, f"{self_s:.4f} s")

    metrics = outcome.metrics
    metrics.update(
        {
            "generators.build_s": build_s,
            "graphs.cache.store_s": store_s,
            "graphs.cache.load_s": load_s,
            "core.runner.self_s": self_s,
            "kernels.kernel_s": _kernel_seconds(last_results),
            "core.comparison.table5_agreement": agreement["direction_agreement"],
            **phases,
            **counters[-1],
        }
    )
    for result in last_results:
        cell_median = statistics.median(result.trial_seconds)
        for name in (
            f"kernels.{result.kernel}.{result.graph}_s",
            f"{PACKAGE_OF[result.framework]}.kernel_s",
        ):
            metrics[name] = metrics.get(name, 0.0) + cell_median
    metrics.update(
        run_probe("repro.la", lambda: _la_primitives(sizes, seed), LA_METRICS)
    )
    return outcome


def _la_primitives(sizes: dict, seed: int) -> dict[str, float]:
    """Seconds per call of each ``repro.la`` primitive, summed over a
    power-law (``kron``) and a high-diameter (``road``) graph."""
    import numpy as np

    from repro.core import GraphCase
    from repro.gapbs.tc import forward_adjacency
    from repro.la import (
        claim_first_writer,
        gather_edges,
        masked_pull_claim,
        plus_times_operator,
        spmv_min_plus,
    )
    from repro.la.intersect import count_forward_triangles

    totals = dict.fromkeys(LA_METRICS, 0.0)
    rng = np.random.default_rng(seed)
    for name in LA_GRAPHS:
        case = GraphCase.build(name, scale=sizes["la_scale"], seed=seed)
        graph, weighted = case.graph, case.weighted
        n = graph.num_vertices
        every_row = np.arange(n, dtype=np.int64)
        sources, targets = gather_edges(graph.indptr, graph.indices, every_row)
        state = np.full(n, -1, dtype=np.int64)
        x = rng.random(n)
        frontier_bits = rng.random(n) < 0.1
        unvisited = np.flatnonzero(~frontier_bits)
        forward = forward_adjacency(case.undirected)

        def pull() -> None:
            parents = np.full(n, -1, dtype=np.int64)
            masked_pull_claim(
                graph.in_indptr, graph.in_indices, unvisited, frontier_bits, parents
            )

        calls = {
            "la.gather_s": lambda: gather_edges(graph.indptr, graph.indices, every_row),
            "la.claim_s": lambda: claim_first_writer(state, targets, sources, n),
            "la.spmv_plus_times_s": lambda: plus_times_operator(
                graph.indptr, graph.indices
            )(x),
            "la.spmv_min_plus_s": lambda: spmv_min_plus(
                weighted.indptr, weighted.indices, weighted.weights, x
            ),
            "la.pull_claim_s": pull,
            "la.intersect_s": lambda: count_forward_triangles(*forward),
        }
        for metric, call in calls.items():
            totals[metric] += calibrated_seconds(call, sizes["calibrate_s"])
    return totals


# ----------------------------------------------------------------------
# smallcells-pool
# ----------------------------------------------------------------------

POOL_PROBE_METRICS = (
    "generators.build_s",
    "graphs.cache.store_s",
    "core.sharedmem.export_s",
    "core.sharedmem.attach_s",
    "core.pool.spawn_s",
    "core.pool.shutdown_s",
)
BATCHING_METRICS = ("core.batching.plan_s", "core.batching.batches")
JOURNAL_METRICS = ("resilience.journal.record_s", "resilience.journal.bytes")


def _pool_spec(seed: int, serial: int, pool: str = "process"):
    from repro.core import BenchmarkSpec

    return BenchmarkSpec(
        scale=POOL_SCALE,
        seed=pool_campaign_seed(seed, serial),
        trials={kernel: 1 for kernel in KERNELS},
        pool=pool,
    )


def _small_campaign(spec, root: Path, serial: int, jobs: int = CLIENTS):
    """One small campaign as a user would run and keep it: cold graph
    build into the cache, pooled execution with a crash journal and
    telemetry, then the archive.  Returns (results, telemetry, archive_s)."""
    from repro.core import Telemetry, run_suite
    from repro.graphs.cache import GraphCache
    from repro.store import RunArchive

    telemetry = Telemetry()
    results = run_suite(
        _paper_frameworks(), _graph_names(), KERNELS, spec=spec, jobs=jobs,
        cache=GraphCache(root / "graphs"),
        journal=str(root / "journals" / f"campaign-{serial}.jsonl"),
        telemetry=telemetry,
    )
    started = time.perf_counter()
    RunArchive(root / "archive").archive_run(
        results, spec=spec, spans=telemetry.spans, source="suite:smallcells-pool"
    )
    return results, telemetry, time.perf_counter() - started


def smallcells_pool(seed: int, seconds: float, trace: bool, sizes: dict, workdir: Path) -> Outcome:
    from repro.store import RunArchive

    outcome = Outcome()
    campaigns = sizes["pool_campaigns"]

    def set_up() -> None:
        time_fresh_import(workdir)
        fresh_dir(workdir, "pool-round")

    _, setups = timed_setups(set_up, 1 if trace else SETUP_REPEATS)
    # One throwaway campaign of the measured shape (seed outside the set).
    _small_campaign(_pool_spec(seed, 999), fresh_dir(workdir, "pool-warmup"), 999)

    def one_round(_index: int) -> Round:
        """The fixed set: ``campaigns`` campaigns into one fresh root."""
        root = fresh_dir(workdir, "pool-round")
        started = time.perf_counter()
        finished = [
            _small_campaign(_pool_spec(seed, serial), root, serial)
            for serial in range(campaigns)
        ]
        wall = time.perf_counter() - started
        detail = {
            "cells": 0, "failures": 0, "kernel_s": 0.0, "archive_s": 0.0, "phases": {},
            "archive_bytes": dir_bytes(root / "archive"),
            "archived_runs": len(RunArchive(root / "archive").list_runs()),
        }
        cell_walls: list[float] = []
        for results, telemetry, archive_s in finished:
            detail["cells"] += len(results)
            detail["failures"] += _cell_failures(results)
            detail["kernel_s"] += _kernel_seconds(results)
            detail["archive_s"] += archive_s
            phases, walls = _span_phases(telemetry.records())
            cell_walls.extend(walls)
            for name, value in phases.items():
                detail["phases"][name] = detail["phases"].get(name, 0.0) + value
        shutil.rmtree(root, ignore_errors=True)
        return Round(wall, cell_walls, detail)

    if trace:
        # The workload already hands run_suite a Telemetry, so "tracing"
        # only reads what it collected; both rounds do identical work and
        # the overhead is their difference.
        untraced, traced, speed = trace_pair(one_round)
        rounds = [untraced, traced]
    else:
        rounds = measure_rounds(one_round, seconds)
    details = [round_.detail for round_ in rounds]
    outcome.attempted = sum(detail["cells"] for detail in details)
    outcome.failed = sum(detail["failures"] for detail in details)
    outcome.check(
        "every-campaign-archived",
        all(detail["archived_runs"] == campaigns for detail in details),
        f"{campaigns} runs per round in the archive index",
    )
    outcome.info.update(
        campaigns_per_round=campaigns,
        cells_per_round=details[-1]["cells"],
        kernel_s=details[-1]["kernel_s"],
    )

    if not trace:
        outcome.report_end_to_end(setups, rounds, self_and_children_rss_mb())
        return outcome

    outcome.report_trace_pair(untraced, traced, speed)
    metrics = outcome.metrics
    metrics.update(
        {
            "kernels.kernel_s": details[-1]["kernel_s"],
            "store.archive.archive_run_s": details[-1]["archive_s"],
            "store.archive.bytes": details[-1]["archive_bytes"],
            **details[-1]["phases"],
        }
    )
    spec = _pool_spec(seed, 0)
    metrics.update(
        run_probe("corpus+pool", lambda: _pool_layers(spec, workdir), POOL_PROBE_METRICS)
    )
    metrics.update(run_probe("batching", lambda: _batching(spec, sizes), BATCHING_METRICS))
    metrics.update(
        run_probe("journal", lambda: _journal_probe(spec, workdir), JOURNAL_METRICS)
    )
    metrics.update(_backends(seed, sizes["backend_repeats"], workdir))
    return outcome


def _pool_layers(spec, workdir: Path) -> dict[str, float]:
    """One campaign's corpus and pool life cycle, layer by layer."""
    from repro.core import WorkerPool
    from repro.core.sharedmem import attach_case, export_case

    _, cases, build_s, store_s = _cold_corpus(spec, fresh_dir(workdir, "probe-graphs"))
    timed = {"generators.build_s": build_s, "graphs.cache.store_s": store_s}
    shared = {}
    try:
        started = time.perf_counter()
        for name, case in cases.items():
            shared[name] = export_case(case)
        exported = time.perf_counter()
        attachments = [attach_case(exported_case.handle) for exported_case in shared.values()]
        attached = time.perf_counter()
        for attachment in attachments:
            attachment.close()
        spawning = time.perf_counter()
        pool = WorkerPool(CLIENTS)
        try:
            pool.begin_campaign(
                spec,
                {name: exported_case.handle for name, exported_case in shared.items()},
                {framework.name: framework for framework in _paper_frameworks()},
            )
        finally:
            spawned = time.perf_counter()
            pool.shutdown()
            timed["core.pool.shutdown_s"] = time.perf_counter() - spawned
        timed["core.sharedmem.export_s"] = exported - started
        timed["core.sharedmem.attach_s"] = attached - exported
        timed["core.pool.spawn_s"] = spawned - spawning
    finally:
        for exported_case in shared.values():
            exported_case.close(unlink=True)
    return timed


def _batching(spec, sizes: dict) -> dict[str, float]:
    from repro.core import Cell, plan_batches
    from repro.frameworks import Mode

    grid = itertools.product(
        _graph_names(), (Mode.BASELINE, Mode.OPTIMIZED), KERNELS, _paper_frameworks()
    )
    cells = [
        Cell(index, graph, mode, kernel, framework.name)
        for index, (graph, mode, kernel, framework) in enumerate(grid)
    ]
    return {
        "core.batching.plan_s": calibrated_seconds(
            lambda: plan_batches(cells, spec, CLIENTS), sizes["calibrate_s"]
        ),
        "core.batching.batches": len(plan_batches(cells, spec, CLIENTS)),
    }


def replay_journal(spec, graphs, kernels, modes, frameworks, results, path: Path) -> dict[str, float]:
    """Journal finished results again: create, one fsynced record each, close."""
    from repro.resilience.journal import CheckpointJournal, campaign_fingerprint

    fingerprint = campaign_fingerprint(
        spec, list(graphs), list(kernels), list(modes), list(frameworks)
    )
    started = time.perf_counter()
    journal = CheckpointJournal.create(path, fingerprint)
    try:
        for result in results:
            journal.record(result)
    finally:
        journal.close()
    return {
        "resilience.journal.record_s": time.perf_counter() - started,
        "resilience.journal.bytes": path.stat().st_size,
    }


def _journal_probe(spec, workdir: Path) -> dict[str, float]:
    """The journal cost of one 360-cell campaign, replayed on its results."""
    from repro.core import run_suite

    frameworks, graphs = _paper_frameworks(), _graph_names()
    results = run_suite(frameworks, graphs, KERNELS, spec=spec)
    return replay_journal(
        spec, graphs, KERNELS, ("baseline", "optimized"),
        [framework.name for framework in frameworks], results,
        fresh_dir(workdir, "probe-journal") / "replay.jsonl",
    )


def _backends(seed: int, repeats: int, workdir: Path) -> dict[str, float]:
    """The same campaign under each backend, cold cache each time."""
    walls: dict[str, list[float]] = {"inline": [], "process": [], "threads": []}
    for repeat in range(repeats):
        for backend in walls:
            spec = _pool_spec(seed, 0, pool="threads" if backend == "threads" else "process")
            root = fresh_dir(workdir, f"backend-{backend}")
            started = time.perf_counter()
            results, _, _ = _small_campaign(
                spec, root, repeat, jobs=1 if backend == "inline" else CLIENTS
            )
            walls[backend].append(time.perf_counter() - started)
            if _cell_failures(results):
                raise RuntimeError(f"{backend} backend produced failed cells")
            shutil.rmtree(root, ignore_errors=True)
    inline, process, threads = (
        statistics.median(walls[b]) for b in ("inline", "process", "threads")
    )
    return {
        "core.runner.inline_wall_s": inline,
        "core.executor.process_wall_s": process,
        "core.executor.threads_wall_s": threads,
        "core.executor.parallel_efficiency": inline / (CLIENTS * process),
    }
