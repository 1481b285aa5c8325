"""Substrate A/B bench: the LA tier against its oracle module.

The pre-port formulation of every ``repro.la`` primitive lives in
``tests/reference/la_oracle.py``, and its ``oracle_engine()`` swaps them
in under the *same* kernel entry points, so both can be timed in one
process — no checkout juggling, no stale baselines.  This bench runs the
six GAP kernels on the road/kron contrast pair at two scales (a CI smoke
scale and the kernel scale the per-kernel benches use), and for each cell
records:

* best-of-N wall time on the oracle (inside ``oracle_engine()``; the
  ``legacy_seconds`` field);
* best-of-N wall time on the substrate (the code as shipped);
* whether the work counters (edges examined, rounds, iterations) agree —
  the substrate must speed the work up, not silently do less of it.  This
  is the GAP-baseline slice of ``tests/test_la_differential.py`` at bench
  scale.

The consolidated summary lands in ``BENCH_kernels.json`` (shared archive
envelope) with per-kernel speedups and the geomean at each scale.  The
acceptance bar: geomean >= 1.3x at the larger scale, counters equal
everywhere.

Run under pytest (tier2 smoke)::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel_substrate.py

or directly for the JSON summary (CI's kernel-bench job does this at the
smoke scale with ``--fail-below 0.9``: >10% regression fails the build)::

    PYTHONPATH=src python benchmarks/bench_kernel_substrate.py
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
# The oracle lives with the tests; a direct run has only benchmarks/ (and
# PYTHONPATH=src) on the path.
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro import counters
from repro.core import GraphCase, SourcePicker
from repro.frameworks import KERNELS, RunContext, get
from repro.store import bench_payload, write_json_atomic
from tests.reference.la_oracle import oracle_engine

SMOKE_SCALE = int(os.environ.get("REPRO_SUBSTRATE_SMOKE_SCALE", "9"))
FULL_SCALE = int(os.environ.get("REPRO_KERNEL_BENCH_SCALE", "11"))
GRAPHS = ("kron", "road")
REPEATS = 3


def _kernel_thunk(kernel: str, framework, case: GraphCase):
    """Bind one kernel invocation; graph building stays untimed."""
    ctx = RunContext(graph_name=case.name)
    picker = SourcePicker(case.graph, seed=0)
    if kernel == "bfs":
        source = picker.next_source()
        return lambda: framework.bfs(case.graph, source, ctx)
    if kernel == "sssp":
        source = picker.next_source()
        return lambda: framework.sssp(case.weighted, source, ctx)
    if kernel == "cc":
        return lambda: framework.connected_components(case.graph, ctx)
    if kernel == "pr":
        return lambda: framework.pagerank(case.graph, ctx)
    if kernel == "bc":
        roots = picker.next_sources(4)
        return lambda: framework.betweenness(case.graph, roots, ctx)
    return lambda: framework.triangle_count(case.undirected, ctx)


def _time_engine(thunk, oracle: bool) -> tuple[float, tuple[int, int, int]]:
    """Best-of-REPEATS wall time plus the (stable) counter totals."""
    best = math.inf
    with oracle_engine() if oracle else contextlib.nullcontext():
        with counters.counting() as work:
            thunk()  # warmup, and the counted run
        totals = (work.edges_examined, work.rounds, work.iterations)
        for _ in range(REPEATS):
            start = time.perf_counter()
            thunk()
            best = min(best, time.perf_counter() - start)
    return best, totals


def measure_scale(scale: int) -> dict:
    """A/B every kernel x graph cell at one scale."""
    cases = {name: GraphCase.build(name, scale=scale) for name in GRAPHS}
    cells = {}
    speedups_by_kernel: dict[str, list[float]] = {k: [] for k in KERNELS}
    framework = get("gap")
    for kernel in KERNELS:
        for graph_name, case in cases.items():
            thunk = _kernel_thunk(kernel, framework, case)
            legacy_s, legacy_work = _time_engine(thunk, oracle=True)
            substrate_s, substrate_work = _time_engine(thunk, oracle=False)
            speedup = legacy_s / substrate_s if substrate_s > 0 else math.inf
            speedups_by_kernel[kernel].append(speedup)
            cells[f"{kernel}:{graph_name}"] = {
                "legacy_seconds": round(legacy_s, 6),
                "substrate_seconds": round(substrate_s, 6),
                "speedup": round(speedup, 3),
                "counters_equal": legacy_work == substrate_work,
                "edges_examined": legacy_work[0],
            }
    per_kernel = {
        kernel: round(math.exp(sum(map(math.log, s)) / len(s)), 3)
        for kernel, s in speedups_by_kernel.items()
    }
    all_speedups = [s for values in speedups_by_kernel.values() for s in values]
    return {
        "scale": scale,
        "cells": cells,
        "per_kernel_speedup": per_kernel,
        "geomean_speedup": round(
            math.exp(sum(map(math.log, all_speedups)) / len(all_speedups)), 3
        ),
        "counters_all_equal": all(c["counters_equal"] for c in cells.values()),
    }


def run_bench(scales: tuple[int, ...]) -> dict:
    payload_data = {
        "graphs": list(GRAPHS),
        "kernels": list(KERNELS),
        "repeats": REPEATS,
        "scales": {str(scale): measure_scale(scale) for scale in scales},
    }
    return bench_payload("kernel_substrate", payload_data)


# --- pytest entry points (tier2: smoke scale only) -------------------------

@pytest.fixture(scope="module")
def smoke_results():
    return measure_scale(SMOKE_SCALE)


@pytest.mark.tier2
def test_substrate_preserves_counters(smoke_results):
    """Substrate and oracle module report the same work in every cell."""
    mismatched = [
        cell for cell, data in smoke_results["cells"].items()
        if not data["counters_equal"]
    ]
    assert not mismatched, f"counter totals diverged in: {mismatched}"


@pytest.mark.tier2
def test_substrate_not_slower_at_smoke_scale(smoke_results):
    """Against the oracle module: report-only per cell; the geomean must
    clear the regression bar."""
    assert smoke_results["geomean_speedup"] >= 0.9, smoke_results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scales", type=int, nargs="+", default=[SMOKE_SCALE, FULL_SCALE],
        help="graph scales to A/B (default: smoke + kernel scale)",
    )
    parser.add_argument(
        "--fail-below", type=float, default=None, metavar="X",
        help="exit nonzero if the largest scale's geomean speedup < X",
    )
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_kernels.json",
    )
    args = parser.parse_args()
    payload = run_bench(tuple(dict.fromkeys(args.scales)))
    write_json_atomic(args.out, payload)
    print(json.dumps(payload, indent=2))
    largest = payload["data"]["scales"][str(max(args.scales))]
    if not largest["counters_all_equal"]:
        print("FAIL: work counters diverged between substrate and oracle")
        return 1
    if args.fail_below is not None and largest["geomean_speedup"] < args.fail_below:
        print(
            f"FAIL: geomean speedup {largest['geomean_speedup']} "
            f"below bar {args.fail_below}"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
