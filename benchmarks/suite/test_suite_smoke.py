"""Smoke test of the benchmark suite (``pytest benchmarks/suite``).

Outside the tier-1 ``testpaths``.  Runs the real command at ``--quick``
sizes and holds its output against ``BENCHMARK.json``: every declared
metric present on every workload, both passes correct, the file within
the limits a benchmark definition must keep.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
BENCHMARK = json.loads((SUITE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_keeps_its_limits():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = WORKLOADS + [
        metric["name"] for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(entry["why"]) <= 200 for entry in BENCHMARK["workloads"])
    assert all(0 < metric["bound"] <= 0.25 for metric in BENCHMARK["end_to_end"])
    assert any(
        metric == {"name": "setup_s", "unit": "s", "better": "lower", "bound": metric["bound"]}
        for metric in BENCHMARK["end_to_end"]
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_reports_every_declared_metric(workload):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--quick", "--seconds", "1",
         "--seed", "5", "--workload", workload],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 2  # the untraced pass, then the traced pass
    for result, kind in zip(results, ("end_to_end", "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(metric["value"] > 0 for metric in results[0]["metrics"].values())
    assert elapsed < 40, f"{workload} --quick took {elapsed:.1f} s"
