"""Smoke tests: every example script must run end to end.

Run via subprocess at small scales so the examples stay honest (no import
errors, no drifted APIs) without inflating test time.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py", "gap", "kron", "9")
    assert "triangles" in out
    assert "bfs" in out


def test_quickstart_other_framework():
    out = run_example("quickstart.py", "gkc", "road", "9")
    assert "Graph Kernel Collection" in out


def test_road_network_analysis():
    out = run_example("road_network_analysis.py", "10")
    assert "scheduling comparison" in out
    assert "most critical junctions" in out


def test_social_network_analysis():
    out = run_example("social_network_analysis.py", "10")
    assert "Gauss-Seidel" in out
    assert "triangles=" in out


def test_web_structure_analysis():
    out = run_example("web_structure_analysis.py", "10")
    assert "communities" in out
    assert "local clustering" in out


def test_semiring_playground():
    out = run_example("semiring_playground.py")
    assert "triangle counting" in out
    assert "min-plus" in out


@pytest.mark.slow
def test_report_tables_small():
    out = run_example("report_tables.py", "9")
    assert "Table V" in out
    assert "Shape agreement" in out


def test_direction_optimization_study():
    out = run_example("direction_optimization_study.py", "10")
    assert "bottom-up window" in out
    assert "pure push" in out
