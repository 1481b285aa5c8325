"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/suite/compare.py A.jsonl B.jsonl

Each file holds the lines ``run.py --record PATH`` appended: one untraced
pass per line (traced and ``--quick`` lines are ignored).  For every
workload x end-to-end metric the table shows both medians with their
quartiles, the spread (quartile distance over median), how much worse B's
median is than A's, the bound from ``BENCHMARK.json`` and a verdict:

``regressed``   B's median is worse than A's by more than the bound;
``unresolved``  a set's own spread is wider than the bound, so the two
                cannot be told apart - unless every B run beats every A run;
``ok``          neither.

A is the parent (or the first of two sets of the same code), B the
change (or the second set).  Exit code 1 if anything regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, one per recorded untraced pass."""
    values: dict[tuple[str, str], list[float]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        if run["trace"] or run.get("quick"):
            continue
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread as a share of median)."""
    middle = statistics.median(values)
    if len(values) < 2:
        return middle, middle, middle, 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return middle, first, third, (third - first) / middle


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """Verdict and B's worsening relative to A's median (negative = better)."""
    a_median, _, _, a_spread = summarize(a)
    b_median, _, _, b_spread = summarize(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b_median - a_median) / a_median
    if worse_by > bound:
        return "regressed", worse_by
    every_b_better = (
        max(b) < min(a) if better == "lower" else min(b) > max(a)
    )
    if max(a_spread, b_spread) > bound and not every_b_better:
        return "unresolved", worse_by
    return "ok", worse_by


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = json.loads(BENCHMARK.read_text())
    a_runs, b_runs = load_runs(argv[0]), load_runs(argv[1])
    header = (
        f"{'workload':<16} {'metric':<12} {'unit':<4} "
        f"{'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
        f"{'spread A':>8} {'spread B':>8} {'B worse':>8} {'bound':>6}  verdict"
    )
    print(header)
    counts = {"ok": 0, "regressed": 0, "unresolved": 0}
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            a = a_runs.get((workload, metric["name"]))
            b = b_runs.get((workload, metric["name"]))
            if not a or not b:
                continue
            status, worse_by = verdict(a, b, metric["better"], metric["bound"])
            counts[status] += 1
            cells, spreads = [], []
            for values in (a, b):
                middle, first, third, spread = summarize(values)
                cells.append(f"{middle:.5g} [{first:.5g}, {third:.5g}] n={len(values)}")
                spreads.append(spread)
            print(
                f"{workload:<16} {metric['name']:<12} {metric['unit']:<4} "
                f"{cells[0]:>34} {cells[1]:>34} "
                f"{spreads[0]:>8.1%} {spreads[1]:>8.1%} "
                f"{worse_by:>+8.1%} {metric['bound']:>6.0%}  {status}"
            )
    print(", ".join(f"{count} {status}" for status, count in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
