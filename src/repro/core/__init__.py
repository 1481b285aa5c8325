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
* ``sweeps`` / ``workload`` — the A2 / S1 / A1 parameter sweeps and W1's
  per-round BFS frontier traces; import them from their submodules.
"""

from .batching import Cell, plan_batches
from .campaign import run_suite
from .pool import WorkerPool
from .results import ResultSet, RunResult
from .runner import GraphCase, build_case, run_cell
from .spec import BenchmarkSpec, SourcePicker
from .telemetry import JsonlSink, Span, Telemetry, TrialDeadline, read_trace

__all__ = [
    "BenchmarkSpec",
    "Cell",
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
    "read_trace",
    "run_cell",
    "run_suite",
]
