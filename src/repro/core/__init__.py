"""Benchmark-suite core: spec, runner, verification, telemetry, tables.

Submodules:

* ``spec`` — the GAP benchmark rules (trials, sources, parameters).
* ``verify`` — per-kernel output verification oracles.
* ``telemetry`` — span tracing, JSONL sinks, per-trial deadlines.
* ``runner`` — measures one cell under the Baseline/Optimized rule sets.
* ``campaign`` — ``run_suite``: the one campaign loop (plan → dispatch →
  settle) and its inline / threads / processes backends.
* ``pool`` / ``batching`` / ``sharedmem`` — what the process backend is
  made of: warm worker processes, batched multi-cell dispatch, and the
  shared-memory corpus.
* ``results`` / ``tables`` — result records and Table I–V renderers.
"""

from .batching import Cell, plan_batches
from .campaign import run_suite
from .pool import WorkerPool
from .results import ResultSet, RunResult
from .runner import GraphCase, build_case, run_cell
from .spec import BenchmarkSpec, SourcePicker
from .sweeps import delta_sweep, direction_threshold_sweep, scale_sweep
from .telemetry import JsonlSink, Span, Telemetry, TrialDeadline, read_trace
from .workload import FrontierTrace, sparkline, trace_bfs

__all__ = [
    "BenchmarkSpec",
    "Cell",
    "FrontierTrace",
    "GraphCase",
    "JsonlSink",
    "ResultSet",
    "RunResult",
    "SourcePicker",
    "Span",
    "Telemetry",
    "TrialDeadline",
    "WorkerPool",
    "build_case",
    "plan_batches",
    "delta_sweep",
    "direction_threshold_sweep",
    "read_trace",
    "run_cell",
    "run_suite",
    "scale_sweep",
    "sparkline",
    "trace_bfs",
]
