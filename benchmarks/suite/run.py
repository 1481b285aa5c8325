"""The repo's one benchmark: four workloads, end to end and layer by layer.

    python3 benchmarks/suite/run.py --seed N [--workload NAME] [--trace 0|1]
                                    [--seconds S] [--quick] [--record [PATH]]

Without ``--workload`` every workload runs; without ``--trace`` each runs
an untraced pass (the end-to-end metrics) and then a traced pass (the
per-layer metrics).  Every pass prints its metrics by name with units and
sample counts, checks the outputs it produced, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero if any check failed.  ``BENCHMARK.json`` at the repo root names
the metrics, units and regression bounds; ``README.md`` beside this file
defines them.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

from harness import (
    REPO_ROOT,
    SRC_DIR,
    SUITE_DIR,
    Outcome,
    make_workdir,
    remove_workdir,
    run_in_own_session,
    terminate_with_parent,
)
from inputs import SIZES, WORKLOADS

HISTORY_PATH = SUITE_DIR / "history.jsonl"


def _workload_functions() -> dict:
    import campaigns
    import services

    return {
        "matrix-serial": campaigns.matrix_serial,
        "smallcells-pool": campaigns.smallcells_pool,
        "service-hit": services.service_hit,
        "service-miss": services.service_miss,
    }


def run_pass(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> Outcome:
    """One pass of one workload in its own work dir, removed afterwards."""
    workdir = make_workdir()
    try:
        from repro.graphs.cache import default_cache_dir
        from repro.store.archive import default_archive_dir

        outcome = _workload_functions()[workload](
            seed, seconds, trace, SIZES["quick" if quick else "full"], workdir
        )
        outcome.check(
            "state-stays-in-workdir",
            all(
                workdir in Path(path).parents
                for path in (default_cache_dir(), default_archive_dir())
            ),
            "default graph cache and archive resolve inside the run's work dir",
        )
    finally:
        remove_workdir(workdir)
    outcome.check("workdir-removed", not workdir.exists(), str(workdir))
    return outcome


def declared_metrics(benchmark: dict, trace: bool) -> dict[str, str]:
    """Metric name -> unit for the pass kind, from BENCHMARK.json."""
    return {
        metric["name"]: metric["unit"]
        for metric in benchmark["per_layer" if trace else "end_to_end"]
    }


def finish_metrics(outcome: Outcome, units: dict[str, str], trace: bool) -> dict:
    """Metrics in the driver's shape, exactly the declared names.

    A traced pass reports every per-layer name; a layer the workload never
    enters spent no time and did no work there, so it reads 0.
    """
    undeclared = set(outcome.metrics) - set(units)
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    missing = set(units) - set(outcome.metrics)
    if missing and not trace:
        raise RuntimeError(f"end-to-end metrics not measured: {sorted(missing)}")
    return {
        name: {"value": outcome.metrics.get(name, 0), "unit": unit}
        for name, unit in units.items()
    }


def print_pass(workload: str, seed: int, trace: bool, outcome: Outcome, metrics: dict) -> None:
    kind = "traced pass, per-layer" if trace else "untraced pass, end-to-end"
    print(f"== {workload} (seed {seed}; {kind}) ==")
    for name, metric in metrics.items():
        if trace and name not in outcome.metrics:
            continue  # layers this workload never enters
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    for key, value in outcome.info.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  ({key}: {shown})")
    print(f"  (operations: {outcome.attempted} attempted, {outcome.failed} failed)")
    for name, passed, detail in outcome.checks:
        print(f"  check {name}: {'ok' if passed else 'FAILED'} - {detail}")


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(benchmark["run_seconds"]),
        help="measuring time of an untraced pass (whole rounds are never cut)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument(
        "--quick", action="store_true", help="smoke-test sizes (see inputs.SIZES)"
    )
    parser.add_argument(
        "--record", nargs="?", const=str(HISTORY_PATH), default=None, metavar="PATH",
        help=f"append one JSON line per pass to PATH (default {HISTORY_PATH.name})",
    )
    parser.add_argument("--in-session", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not SRC_DIR.is_dir():
        print(f"no package to measure: {SRC_DIR} is missing", file=sys.stderr)
        return 2
    if not args.in_session:
        # The passes run in a child with a session of its own, so that this
        # command never returns before every process of the run has ended.
        arguments = sys.argv[1:] if argv is None else list(argv)
        return run_in_own_session(
            [sys.executable, str(Path(__file__).resolve()), *arguments, "--in-session"]
        )
    sys.path.insert(0, str(SRC_DIR))
    # A terminated run must still unwind: servers reaped, work dir removed.
    # Only the first SIGTERM counts, so that nothing cuts the unwinding short.
    def unwind(*_signal) -> None:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        sys.exit(143)

    signal.signal(signal.SIGTERM, unwind)
    terminate_with_parent()
    from repro.store.environment import fingerprint

    environment = fingerprint()
    print(f"environment: {json.dumps(environment, sort_keys=True)}")

    all_correct = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        for trace in [bool(args.trace)] if args.trace is not None else (False, True):
            outcome = run_pass(workload, args.seed, args.seconds, trace, args.quick)
            metrics = finish_metrics(outcome, declared_metrics(benchmark, trace), trace)
            print_pass(workload, args.seed, trace, outcome, metrics)
            result = {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
            if args.record:
                line = {
                    "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                    "workload": workload, "seed": args.seed, "trace": int(trace),
                    "seconds": args.seconds, "quick": args.quick,
                    **result, "info": outcome.info, "environment": environment,
                }
                with open(args.record, "a", encoding="utf-8") as stream:
                    stream.write(json.dumps(line, sort_keys=True) + "\n")
            all_correct = all_correct and outcome.correct
            print(json.dumps(result), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
