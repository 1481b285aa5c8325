"""Benchmark runner: executes the 30 GAP tests under both rule sets.

Timing follows the GAP rules as the paper applies them:

* graph loading, weight generation, symmetrization (for TC), and
  transposition are *not* timed — every framework receives the same
  prebuilt :class:`GraphCase`;
* any restructuring/relabeling a kernel performs *is* timed, except where
  a framework's Optimized rules exclude it (the ``prepare`` hook);
* BFS/SSSP rotate through deterministic random sources, identical for all
  frameworks; BC draws 4 roots per trial; the reported time is the
  average over trials;
* every output is verified (once per cell) against the oracles in
  :mod:`repro.core.verify`, each computed once per input.

Every cell runs inside a telemetry span (see :mod:`repro.core.telemetry`):
wall time per trial, prepare/kernel/verify phase times, a work-counter
snapshot, optional peak memory, and an outcome status.  ``run_cell``
raises on failure (callers that benchmark a single cell want the
traceback); ``run_attempt`` is the isolating wrapper campaigns use — a
crashing or hanging framework cell becomes an ``error``/``timeout``
result.  The campaign itself (:func:`repro.core.campaign.run_suite`:
journal, retries, circuit breaker, backends) lives in
:mod:`repro.core.campaign`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import faults
from ..errors import TrialTimeoutError
from ..frameworks.base import Framework, Mode, RunContext
from ..generators import build_graph, weighted_version
from ..graphs import CSRGraph
from ..graphs.cache import GraphCache
from . import counters as counters_mod
from . import verify
from .batching import Cell
from .memory import track_peak_memory
from .results import RunResult
from .spec import BenchmarkSpec, SourcePicker
from .telemetry import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    Span,
    Telemetry,
    TrialDeadline,
)

__all__ = ["GraphCase", "build_case", "failed_result", "run_attempt", "run_cell"]


@dataclass(frozen=True)
class GraphCase:
    """One benchmark input, with all untimed derived forms prebuilt.

    The three views obey explicit derivation rules (tested in
    ``tests/test_harness.py``):

    * ``weighted`` is ``graph`` plus GAP-style edge weights and always
      preserves ``graph``'s direction; it is ``graph`` itself when the
      input already carries weights.
    * ``undirected`` is ``graph`` itself when the input is already
      undirected (an alias, never a copy), else the symmetrized form.
      It is always unweighted like ``graph`` (TC ignores weights).

    ``oracles`` holds the reference answers :func:`verify.verify_output`
    has computed for this input, keyed ``(kernel, source | roots | None)``,
    so the cells that share an input share its oracles.  It is no part of
    the case's identity (equality, ``repr`` and the shared-memory export
    ignore it) and lives exactly as long as the case does.
    """

    name: str
    graph: CSRGraph
    weighted: CSRGraph
    undirected: CSRGraph
    oracles: dict[tuple, object] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @classmethod
    def build(cls, name: str, scale: int, seed: int = 0) -> "GraphCase":
        return cls.from_graph(name, build_graph(name, scale=scale, seed=seed), seed=seed)

    @classmethod
    def from_graph(cls, name: str, graph: CSRGraph, seed: int = 0) -> "GraphCase":
        """Derive the weighted/undirected views for an existing graph."""
        weighted = graph if graph.is_weighted else weighted_version(graph, seed=seed)
        undirected = graph.to_undirected() if graph.directed else graph
        return cls(name, graph, weighted, undirected)


def build_case(
    graph_name: str,
    spec: BenchmarkSpec,
    cache: GraphCache | None = None,
    telemetry: Telemetry | None = None,
) -> GraphCase:
    """Build one corpus case, going through the graph cache when given.

    A cache hit skips generation *and* derived-view construction entirely
    (the artifact stores all three views with their aliasing); a miss
    builds the case and persists it for the next campaign.

    ``graph_name`` may be a dataset reference (``file:...`` /
    ``dataset:...``): the file is resolved once here in the parent, its
    case is cached under the file's SHA-256 content digest (renames hit,
    edits miss), and the process backend publishes the built case over
    shared memory — workers never touch the file.

    A *corrupt* cache artifact (checksum/parse failure, torn pair) still
    degrades to a rebuild, but not silently: with ``telemetry`` given,
    each corruption the lookup detected becomes a structured
    ``cache-corruption`` warning span, and the cache's ``corrupt`` /
    ``corrupt_events`` counters record it either way.
    """
    from ..graphs.datasets import is_dataset_ref, resolve

    def _note_corruption(start: int) -> None:
        # Surface damage the load just detected; a plain cold miss adds
        # no events, so warm paths pay one len() comparison.
        if telemetry is None or cache is None:
            return
        for event in cache.corrupt_events[start:]:
            telemetry.ingest(
                Span(
                    name="cache-corruption",
                    attributes={"graph": graph_name},
                    warnings=[{"warning": "graph-cache-corruption", **event}],
                )
            )

    if is_dataset_ref(graph_name):
        info = resolve(graph_name)
        if cache is not None:
            seen = len(cache.corrupt_events)
            views = cache.load_dataset_views(info.digest, spec.seed)
            _note_corruption(seen)
            if views is not None:
                return GraphCase(graph_name, *views)
        case = GraphCase.from_graph(graph_name, info.load(), seed=spec.seed)
        if cache is not None:
            try:
                cache.store_dataset_views(
                    info.digest, spec.seed,
                    case.graph, case.weighted, case.undirected,
                )
            except OSError:
                pass
        return case

    if cache is not None:
        seen = len(cache.corrupt_events)
        views = cache.load_views(graph_name, spec.scale, spec.seed)
        _note_corruption(seen)
        if views is not None:
            return GraphCase(graph_name, *views)
    case = GraphCase.build(graph_name, scale=spec.scale, seed=spec.seed)
    if cache is not None:
        try:
            cache.store_views(
                graph_name, spec.scale, spec.seed,
                case.graph, case.weighted, case.undirected,
            )
        except OSError:
            # The cache is an optimization: a full or unwritable disk must
            # not sink a campaign whose graph is already built.
            pass
    return case


def _kernel_input(case: GraphCase, kernel: str) -> CSRGraph:
    if kernel == "sssp":
        return case.weighted
    if kernel == "tc":
        return case.undirected
    return case.graph


def _counters_snapshot(work: counters_mod.WorkCounters) -> dict[str, object]:
    snapshot: dict[str, object] = {
        "edges_examined": work.edges_examined,
        "vertices_touched": work.vertices_touched,
        "rounds": work.rounds,
        "iterations": work.iterations,
    }
    if work.extras:
        snapshot["extras"] = dict(work.extras)
    return snapshot


def _attach_cell_detail(
    cell: Span,
    prepare_seconds: float,
    verify_seconds: float | None,
    trial_seconds: list[float],
    trial_sources: list[object],
    planned_trials: int,
    work: counters_mod.WorkCounters,
    peak_bytes: int | None,
) -> None:
    """Materialize the per-trial records and phase sub-spans of one cell.

    Runs *after* the trial loop (and on the failure path), so building the
    trace costs the timed region nothing.  Completed trials are ``ok``;
    when the loop stopped early, the trial the exception interrupted is
    recorded with the cell's failure status and the rest as ``skipped``.
    """
    cell.children.append(Span(name="prepare", wall_seconds=prepare_seconds))
    if verify_seconds is not None:
        cell.children.append(Span(name="verify", wall_seconds=verify_seconds))
    failed = cell.status != STATUS_OK
    for trial in range(planned_trials):
        if trial < len(trial_seconds):
            record: dict[str, object] = {
                "trial": trial,
                "status": "ok",
                "wall_seconds": trial_seconds[trial],
            }
        elif failed and trial == len(trial_seconds):
            record = {"trial": trial, "status": cell.status, "wall_seconds": None}
        else:
            record = {"trial": trial, "status": "skipped", "wall_seconds": None}
        if trial < len(trial_sources) and trial_sources[trial] is not None:
            record["source"] = trial_sources[trial]
        cell.trials.append(record)
    cell.counters = _counters_snapshot(work)
    if peak_bytes is not None:
        cell.peak_mem_bytes = peak_bytes


def run_cell(
    framework: Framework,
    kernel: str,
    case: GraphCase,
    mode: Mode,
    spec: BenchmarkSpec,
    telemetry: Telemetry | None = None,
    attempt: int = 0,
) -> RunResult:
    """Benchmark one (framework, kernel, graph, mode) cell.

    Raises on kernel error, verification failure, or deadline overrun;
    either way the cell's telemetry span records what happened first.
    ``attempt`` is the 0-based execution count under the retry policy;
    re-executions stamp it on the cell span (and it addresses injected
    faults, so "fail on attempt 0 only" plans are expressible).
    """
    tel = telemetry if telemetry is not None else Telemetry()
    ctx = RunContext(
        mode=mode,
        graph_name=case.name,
        delta=spec.delta_for(case.name),
        seed=spec.seed,
    )
    base_input = _kernel_input(case, kernel)
    planned_trials = spec.num_trials(kernel)
    deadline = TrialDeadline(spec.trial_timeout)

    trial_seconds: list[float] = []
    trial_sources: list[object] = []
    prepare_seconds = 0.0
    verify_seconds: float | None = None
    peak_bytes: int | None = None
    work = counters_mod.WorkCounters()

    with tel.span(
        "cell",
        framework=framework.name,
        kernel=kernel,
        graph=case.name,
        mode=mode.value,
    ) as cell:
        if attempt:
            cell.attributes["attempt"] = attempt
        try:
            cell.attributes["phase"] = "prepare"
            prepare_start = time.perf_counter()
            prepared = framework.prepare(kernel, base_input, ctx)
            prepare_seconds = time.perf_counter() - prepare_start
            # Only the rooted kernels draw sources; the picker scans every
            # out-degree to find its candidates.
            picker = (
                SourcePicker(case.graph, spec.seed)
                if kernel in ("bfs", "sssp", "bc")
                else None
            )

            for trial in range(planned_trials):
                source: int | None = None
                sources: np.ndarray | None = None
                if kernel in ("bfs", "sssp"):
                    source = picker.next_source()
                elif kernel == "bc":
                    sources = picker.next_sources(spec.bc_roots)
                trial_sources.append(source)
                cell.attributes["phase"] = "kernel"
                cell.attributes["trial"] = trial

                def timed_kernel() -> tuple[object, float]:
                    # In-trial fault-injection point: inside the deadline
                    # scope, so an injected hang times out exactly like a
                    # genuinely hung kernel.
                    with deadline:
                        faults.fire(
                            framework.name, kernel, case.name, mode.value, attempt
                        )
                        start = time.perf_counter()
                        out = framework.run_kernel(
                            kernel, prepared, ctx,
                            source=source, sources=sources,
                            pr_tolerance=spec.pr_tolerance,
                        )
                        return out, time.perf_counter() - start

                with counters_mod.counting() as trial_work:
                    if tel.track_memory and trial == 0:
                        with track_peak_memory() as tracked:
                            output, elapsed = timed_kernel()
                        peak_bytes = tracked.peak_bytes
                    else:
                        output, elapsed = timed_kernel()
                trial_seconds.append(elapsed)

                if trial == 0:
                    work = trial_work
                    output = faults.transform_output(
                        framework.name, kernel, case.name, mode.value, attempt, output
                    )
                    if spec.verify:
                        cell.attributes["phase"] = "verify"
                        verify_start = time.perf_counter()
                        verify.verify_output(
                            kernel, case, output, source, sources,
                            tolerance=spec.pr_tolerance,
                        )
                        verify_seconds = time.perf_counter() - verify_start
            cell.attributes.pop("phase", None)
            cell.attributes.pop("trial", None)
        except BaseException as exc:
            # Mark the span before the finally materializes trial records,
            # so the interrupted trial carries the failure status.
            cell.fail(exc)
            overrun = deadline.last_overrun
            if overrun is not None and not overrun.get("interrupted", True):
                # The deadline fired but could not stop the trial (a long
                # C call, or no signal support): the kernel ran to
                # completion and real wall time exceeded the budget.
                cell.warnings.append(
                    {"warning": "deadline-overrun-uninterrupted", **overrun}
                )
            raise
        finally:
            _attach_cell_detail(
                cell, prepare_seconds, verify_seconds, trial_seconds,
                trial_sources, planned_trials, work, peak_bytes,
            )

    return RunResult(
        framework=framework.name,
        kernel=kernel,
        graph=case.name,
        mode=mode,
        trial_seconds=trial_seconds,
        verified=True,
        edges_examined=work.edges_examined,
        rounds=work.rounds,
        iterations=work.iterations,
        extras=dict(work.extras),
    )


def failed_result(cell: Cell, status: str, error: "BaseException | str") -> RunResult:
    """The result of a cell that produced no measurement.

    ``status`` says why: ``error``/``timeout`` for an attempt that failed
    or was lost with its worker, ``skipped`` for a cell the circuit
    breaker never let run.  An exception is recorded as ``"Type:
    message"``, the form the retry classifier reads.
    """
    if not isinstance(error, str):
        error = f"{type(error).__name__}: {error}"
    return RunResult(
        framework=cell.framework,
        kernel=cell.kernel,
        graph=cell.graph,
        mode=cell.mode,
        trial_seconds=[],
        verified=False,
        status=status,
        error=error,
    )


def run_attempt(
    framework: Framework,
    cell: Cell,
    case: GraphCase,
    spec: BenchmarkSpec,
    telemetry: Telemetry,
    attempt: int,
) -> tuple[RunResult, BaseException | None]:
    """Execute one attempt of one cell with its failure isolated.

    The single place a campaign calls :func:`run_cell`: every backend —
    the caller's thread, a worker thread, a worker process, the
    crash-loop fallback — runs cells through here, so a kernel error or
    a deadline overrun becomes the same ``error``/``timeout`` result
    everywhere.  The live exception rides along for strict mode; only a
    backend sharing the caller's thread can still hand it on.
    """
    try:
        result = run_cell(
            framework, cell.kernel, case, cell.mode, spec,
            telemetry=telemetry, attempt=attempt,
        )
        return result, None
    except TrialTimeoutError as exc:
        return failed_result(cell, STATUS_TIMEOUT, exc), exc
    except Exception as exc:
        return failed_result(cell, STATUS_ERROR, exc), exc
