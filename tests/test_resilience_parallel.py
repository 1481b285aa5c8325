"""Process-backend resilience: crash recovery, breakers, kill/resume, leaks.

Tier-1 guarantees pinned here:

* a cell whose worker crashes is recorded from parent-side bookkeeping and
  retried on a replacement worker when ``--retries`` allows;
* a cell that crashes its worker twice falls back to in-parent execution
  (the crash-loop escape hatch) instead of burning a third worker;
* with retries exhausted (or disabled) a worker death becomes a
  structured ``error`` result and the rest of the campaign completes;
* the circuit breaker prunes a broken combo's undispatched cells;
* an interrupted CLI campaign (injected crash, exit code 86) resumes from
  its journal into a result set byte-identical (modulo timings) to an
  uninterrupted run — the crash/resume protocol end to end;
* no shared-memory segment survives an aborted parallel campaign.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import Telemetry
from repro.frameworks import Mode
from repro.gapbs import GAPReference
from repro.faults import CRASH_EXIT_CODE, Fault

from .conftest import run_on

REPO_ROOT = Path(__file__).resolve().parents[1]


def _parallel_campaign(spec, kernels=("bfs",), graphs=("kron",), **kw):
    return run_on(
        "process",
        [GAPReference()],
        list(graphs),
        spec,
        kernels=list(kernels),
        modes=[Mode.BASELINE],
        **kw,
    )


def test_worker_crash_is_retried_on_replacement_worker():
    telemetry = Telemetry()
    results = _parallel_campaign(
        dict(retries=1), faults=(Fault("crash", kernel="bfs"),), telemetry=telemetry
    )
    (result,) = results
    assert result.ok and result.attempts == 2
    statuses = sorted(s.status for s in telemetry.spans)
    assert statuses == ["error", "ok"]  # the lost attempt is traced too


def test_crash_loop_falls_back_to_in_parent_execution():
    seen = []
    results = _parallel_campaign(
        dict(retries=2), faults=(Fault("crash", kernel="bfs", times=2),),
        progress=seen.append,
    )
    (result,) = results
    # Two dead workers, then the cell runs to completion in the parent.
    assert result.ok and result.attempts == 3
    assert any(label.endswith("(in-parent)") for label in seen)


def test_worker_crash_without_retries_is_an_error_result():
    results = _parallel_campaign(
        dict(), faults=(Fault("crash", kernel="bfs"),), kernels=("bfs", "cc")
    )
    by_key = {r.cell_key: r for r in results}
    crashed = by_key[("kron", "baseline", "bfs", "gap")]
    assert crashed.status == "error" and crashed.attempts == 1
    assert f"exit code {CRASH_EXIT_CODE}" in crashed.error
    assert by_key[("kron", "baseline", "cc", "gap")].ok  # campaign continued


def test_parallel_breaker_prunes_undispatched_combo_cells():
    results = _parallel_campaign(
        dict(breaker_threshold=1), faults=(Fault("error", kernel="cc"),),
        kernels=("cc",), graphs=("kron", "road", "urand"),
    )
    statuses = {r.graph: r.status for r in results}
    assert len(results) == 3
    # Two cells dispatch to the two workers and fail; the breaker opens on
    # the first failure and the queued third cell is skipped, not run.
    assert sorted(statuses.values()) == ["error", "error", "skipped"]
    skipped = results.skipped()
    assert len(skipped) == 1 and "circuit breaker" in skipped[0].error
    assert results.meta["resilience"]["skipped_cells"] == 1


# -- CLI kill/resume end to end ----------------------------------------------


def _cli_run(tmp_path, *extra, faults=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_FAULTS", None)
    if faults is not None:
        env["REPRO_FAULTS"] = json.dumps(faults)
    return subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "run",
            "--scale",
            "7",
            "--graphs",
            "kron",
            "--kernels",
            "bfs,cc",
            "--frameworks",
            "gap",
            "--modes",
            "baseline",
            "--no-cache",
            *extra,
        ],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _normalized(path):
    """Results payload with nondeterministic timings and lineage removed."""
    payload = json.loads(Path(path).read_text())
    for record in payload["results"]:
        record["trial_seconds"] = []
        record["seconds"] = None
    payload.get("meta", {}).pop("resilience", None)
    return json.dumps(payload, sort_keys=True).encode()


@pytest.mark.slow
def test_cli_kill_and_resume_matches_uninterrupted_run(tmp_path):
    journal = tmp_path / "campaign.jsonl"

    # 1. The campaign is killed by an injected crash mid-run: bfs lands in
    #    the journal, the process dies executing cc.
    killed = _cli_run(
        tmp_path,
        "--journal",
        str(journal),
        faults=[{"kind": "crash", "kernel": "cc"}],
    )
    assert killed.returncode == CRASH_EXIT_CODE, killed.stderr
    lines = journal.read_bytes().splitlines()
    assert len(lines) == 2  # header + the one completed cell, fsynced

    # 2. Resume without the fault: only cc re-runs, the set completes.
    resumed = _cli_run(
        tmp_path,
        "--journal",
        str(journal),
        "--resume",
        "--out",
        str(tmp_path / "resumed.json"),
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "2 cells measured, 0 failed" in resumed.stdout

    # 3. An uninterrupted campaign produces the identical normalized set.
    full = _cli_run(tmp_path, "--out", str(tmp_path / "full.json"))
    assert full.returncode == 0, full.stderr
    assert _normalized(tmp_path / "resumed.json") == _normalized(
        tmp_path / "full.json"
    )


@pytest.mark.slow
def test_cli_refuses_journal_from_different_campaign(tmp_path):
    journal = tmp_path / "campaign.jsonl"
    first = _cli_run(tmp_path, "--journal", str(journal))
    assert first.returncode == 0, first.stderr
    mismatched = _cli_run(
        tmp_path, "--scale", "8", "--journal", str(journal), "--resume"
    )
    assert mismatched.returncode == 1
    assert "cannot resume campaign" in mismatched.stderr
    assert "spec" in mismatched.stderr


# -- shared-memory hygiene ----------------------------------------------------


@pytest.mark.skipif(not Path("/dev/shm").is_dir(), reason="no /dev/shm")
def test_aborted_parallel_campaign_leaves_no_shm_segments():
    before = set(os.listdir("/dev/shm"))

    def abort(label):
        raise KeyboardInterrupt  # the operator hits Ctrl-C mid-campaign

    with pytest.raises(KeyboardInterrupt):
        _parallel_campaign(
            dict(), kernels=("bfs", "cc"), graphs=("kron", "road"), progress=abort
        )
    leaked = {
        name for name in set(os.listdir("/dev/shm")) - before if "psm" in name
    }
    assert not leaked


@pytest.mark.skipif(not Path("/dev/shm").is_dir(), reason="no /dev/shm")
def test_completed_parallel_campaign_leaves_no_shm_segments():
    before = set(os.listdir("/dev/shm"))
    results = _parallel_campaign(dict(), kernels=("bfs", "cc"))
    assert all(r.ok for r in results)
    leaked = {
        name for name in set(os.listdir("/dev/shm")) - before if "psm" in name
    }
    assert not leaked
