"""Chaos soak: storage faults + SIGKILLs, then prove nothing was lost.

The resilience story this repo tells is only credible if it survives an
adversarial run: a server whose disk tears writes, reports full, fails
fsyncs, and silently flips bits — while the process itself is SIGKILLed
mid-campaign, repeatedly.  This soak drives exactly that and then holds
the storage tier to its contract:

* **soak rounds** — each round restarts the server (``--resume``) on the
  same archive with a *randomized but deterministic* fault plan of
  storage and cell faults injected through ``REPRO_FAULTS``, drives a
  small client fleet through overlapping campaigns, and SIGKILLs the
  whole process group mid-work.
  Client-side transport errors are expected; *corruption* is not: every
  ``cell`` event a client ever receives is recorded by digest.
* **degraded round** — the server is restarted with an impossible disk
  watermark (``REPRO_MIN_FREE_BYTES``): submissions holding misses must
  come back as a structured terminal ``degraded`` event (hits still
  served, misses rejected, nothing written), ``/health`` must report
  degraded, and a SIGTERM must drain to exit code 0.
* **scrub** — :func:`repro.store.scrub` on the battered archive must
  reach a ``clean``/``healed`` verdict, and a second scrub must be
  ``clean``: self-healing converges.
* **cold restart** — a final fault-free server re-serves the campaigns.
  Every cell completed during the soak whose run survived scrub (its
  digest is still in the rebuilt cell index) must come back
  ``cached: true`` — zero recompute; cells whose backing run scrub
  *quarantined* are the only permitted re-executions (served-corrupt is
  never an option).  A second pass must be 100% cached and
  byte-identical to the first.

Run directly for a JSON summary (also written to
``BENCH_chaos_soak.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_chaos_soak.py
    PYTHONPATH=src python benchmarks/bench_chaos_soak.py --rounds 6

or under pytest for a reduced smoke (tier2/slow; not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/bench_chaos_soak.py
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.service import ServiceClient
from repro.store import (
    RunArchive,
    bench_payload,
    open_self_healing_index,
    scrub,
    write_json_atomic,
)
from repro.store.environment import fingerprint

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src")

#: Overlapping small campaigns (shared cells dedupe across the fleet).
#: Quick kernels at a small scale keep each cell ~milliseconds, so kills
#: land between cells as often as inside one.
CAMPAIGNS = [
    {"graphs": "urand", "kernels": "bfs,cc", "frameworks": "gap",
     "modes": "baseline", "scale": 6},
    {"graphs": "urand,kron", "kernels": "cc", "frameworks": "gap,suitesparse",
     "modes": "baseline", "scale": 6},
    {"graphs": "kron", "kernels": "bfs,pr", "frameworks": "gap",
     "modes": "baseline,optimized", "scale": 6},
    {"graphs": "road", "kernels": "bfs,sssp", "frameworks": "gap",
     "modes": "baseline", "scale": 6},
]

#: A campaign never submitted during the soak: its cells are guaranteed
#: misses for the degraded-mode round.
DEGRADED_CAMPAIGN = {
    "graphs": "web", "kernels": "pr", "frameworks": "suitesparse",
    "modes": "baseline", "scale": 6,
}

#: Path substrings the random storage faults aim at.  Loud faults (enospc,
#: torn-write, fsync-fail) may hit anything — they fail the operation
#: before anything is promised.  Silent bit-flips are aimed at the
#: *checksummed replayable* surfaces (cell index, journals), where
#: recovery loses nothing; flipped archive payloads are exercised
#: separately because they legitimately cost the damaged run (the
#: quarantine path — see the cold-restart accounting).
LOUD_TARGETS = ("cell_index", "journals", "runs", "manifest.json")
FLIP_TARGETS = ("cell_index", "journals")


def _random_plan(rng: random.Random, flip_archive: bool) -> list[dict]:
    """One round's plan: one to three storage faults, maybe a cell fault."""
    plan: list[dict] = []
    for _ in range(rng.randrange(1, 4)):
        kind = rng.choice(("enospc", "torn-write", "fsync-fail", "bit-flip"))
        if kind == "bit-flip":
            target = rng.choice(FLIP_TARGETS)
        else:
            target = rng.choice(LOUD_TARGETS)
        plan.append({"kind": kind, "path": target, "first": rng.randrange(0, 5)})
    if flip_archive:
        # The served-corrupt scenario: one archived results.json is
        # silently damaged during staging; scrub must catch it.
        plan.append({"kind": "bit-flip", "path": "results.json",
                     "first": rng.randrange(0, 2)})
    if rng.random() >= 0.5:
        # A first-attempt error on one kernel: the retry policy absorbs it.
        plan.append({"kind": "error", "kernel": rng.choice(("bfs", "cc", "pr"))})
    return plan


def _start_server(
    tmp: Path, resume: bool, extra_env: dict[str, str]
) -> tuple[subprocess.Popen, int]:
    """Launch ``repro serve`` in its own process group; returns (proc, port)."""
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--host", "127.0.0.1", "--port", "0",
        "--archive-dir", str(tmp / "archive"),
        "--cache-dir", str(tmp / "graphs"),
        "--journal-dir", str(tmp / "journals"),
    ]
    if resume:
        argv.append("--resume")
    env = dict(os.environ, PYTHONPATH=SRC, **extra_env)
    # A plan left over from the caller's environment must not leak into
    # rounds that did not ask for it.
    for key in ("REPRO_FAULTS", "REPRO_MIN_FREE_BYTES"):
        if key not in extra_env:
            env.pop(key, None)
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True, start_new_session=True,
    )
    deadline = time.time() + 90.0
    port = None
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(f"server exited early (code {proc.poll()})")
        if "listening on http://" in line:
            port = int(line.rsplit(":", 1)[1])
            break
    assert port is not None, "server never reported its port"
    return proc, port


def _sigkill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=30.0)


def _canonical(result: dict) -> str:
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def run_soak(
    rounds: int = 3,
    clients: int = 3,
    kill_after: float = 4.0,
    seed: int = 0,
    client_timeout: float = 120.0,
) -> dict[str, object]:
    """Run the full soak; raises AssertionError on any broken invariant."""
    rng = random.Random(seed)
    tmp = Path(tempfile.mkdtemp(prefix="repro-chaos-soak-"))
    completed: dict[tuple[str, ...], str] = {}  # cell key -> digest
    transport_errors = 0
    kills = 0
    plans: list[list[dict]] = []

    # -- soak rounds: faults + fleet + SIGKILL ---------------------------
    for round_no in range(rounds):
        flip_archive = round_no == rounds - 1
        plan = _random_plan(rng, flip_archive)
        plans.append(plan)
        proc, port = _start_server(
            tmp, resume=round_no > 0, extra_env={"REPRO_FAULTS": json.dumps(plan)}
        )

        errors_lock = threading.Lock()
        round_errors = [0]

        def drive(slot: int) -> None:
            client = ServiceClient(
                "127.0.0.1", port, timeout=client_timeout,
                max_attempts=2, backoff=0.1,
            )
            try:
                for n in range(len(CAMPAIGNS)):
                    campaign = CAMPAIGNS[(slot + n) % len(CAMPAIGNS)]
                    try:
                        for event in client.submit(campaign):
                            if event["event"] != "cell":
                                continue
                            if event["result"].get("status", "ok") != "ok":
                                # A faulted cell: recorded as an error
                                # result, never indexed, legitimately
                                # re-executed later.
                                continue
                            key = tuple(event["cell"])
                            completed[key] = event["digest"]
                    except (ServiceError, OSError):
                        # The server was killed (or a faulted job failed
                        # the whole submission): expected during chaos.
                        with errors_lock:
                            round_errors[0] += 1
                        return
            finally:
                client.close()

        threads = [
            threading.Thread(target=drive, args=(slot,), daemon=True)
            for slot in range(clients)
        ]
        for thread in threads:
            thread.start()
        time.sleep(kill_after * (0.5 + rng.random()))
        _sigkill_group(proc)
        kills += 1
        for thread in threads:
            thread.join(timeout=60.0)
        transport_errors += round_errors[0]

    assert completed, "soak completed zero cells; faults were too aggressive"

    # -- degraded round: watermark floor no disk can satisfy -------------
    proc, port = _start_server(
        tmp, resume=True,
        extra_env={"REPRO_MIN_FREE_BYTES": str(10**18)},
    )
    degraded_rejected = 0
    try:
        client = ServiceClient("127.0.0.1", port, timeout=client_timeout)
        health = client.health()
        assert health["degraded"] is True, health
        assert not health["ok"], "degraded server must not report ok"
        assert any("disk" in r for r in health["degraded_reasons"]), health

        events = client.submit_and_collect(DEGRADED_CAMPAIGN)
        terminal = events[-1]
        assert terminal["event"] == "degraded", (
            f"miss under disk pressure must be rejected structurally, "
            f"got {terminal}"
        )
        assert terminal["rejected"] > 0
        assert terminal["retry_after_seconds"] > 0
        degraded_rejected = terminal["rejected"]
        # Cells already measured still stream as hits while degraded.
        known = [k for k in completed if k[0] in ("urand", "kron", "road")]
        if known:
            hit_events = client.submit_and_collect(CAMPAIGNS[0])
            served = [e for e in hit_events if e["event"] == "cell"]
            assert all(e["cached"] for e in served)
        client.close()
    finally:
        # SIGTERM, not SIGKILL: the drain path must exit 0.
        proc.terminate()
        code = proc.wait(timeout=60.0)
    assert code == 0, f"graceful drain exited {code}"

    # -- scrub: self-healing converges -----------------------------------
    archive = RunArchive(tmp / "archive")
    report = scrub(archive)
    assert report.verdict in ("clean", "healed"), report.as_dict()
    second = scrub(RunArchive(tmp / "archive"))
    assert second.verdict == "clean", second.as_dict()

    index, _heal = open_self_healing_index(RunArchive(tmp / "archive"))
    surviving = {key for key, digest in completed.items() if digest in index}
    quarantined_cells = len(completed) - len(surviving)
    index.close()

    # -- cold restart: zero recompute for everything that survived -------
    proc, port = _start_server(tmp, resume=True, extra_env={})
    try:
        client = ServiceClient("127.0.0.1", port, timeout=client_timeout)
        first_pass: dict[tuple[str, ...], tuple[bool, str]] = {}
        for campaign in CAMPAIGNS:
            for event in client.submit_and_collect(campaign):
                if event["event"] == "cell":
                    first_pass[tuple(event["cell"])] = (
                        bool(event["cached"]), _canonical(event["result"]),
                    )
        recomputed = [
            key for key in surviving if not first_pass[key][0]
        ]
        assert not recomputed, (
            f"{len(recomputed)} soak-completed cells with surviving runs "
            f"were re-executed after restart: {recomputed[:5]}"
        )
        # Second pass: everything cached, byte-identical.
        for campaign in CAMPAIGNS:
            events = client.submit_and_collect(campaign)
            assert events[-1]["event"] == "done"
            assert events[-1]["executed"] == 0, (
                f"second cold pass executed {events[-1]['executed']} cells"
            )
            for event in events:
                if event["event"] != "cell":
                    continue
                key = tuple(event["cell"])
                assert _canonical(event["result"]) == first_pass[key][1], (
                    f"cached result for {key} changed between passes"
                )
        final_health = client.health()
        client.shutdown()
    finally:
        if proc.poll() is None:
            _sigkill_group(proc)

    return {
        "environment": fingerprint(),
        "config": {
            "rounds": rounds,
            "clients": clients,
            "kill_after_seconds": kill_after,
            "seed": seed,
            "campaigns": len(CAMPAIGNS),
        },
        "soak": {
            "sigkills": kills,
            "cells_completed": len(completed),
            "client_transport_errors": transport_errors,
            "plans": plans,
        },
        "degraded": {
            "rejected_cells": degraded_rejected,
            "drain_exit_code": code,
        },
        "scrub": {
            "first_verdict": report.verdict,
            "second_verdict": second.verdict,
            "quarantined_runs": len(report.quarantined),
            "index_rebuilt": report.index_rebuilt,
        },
        "cold_restart": {
            "surviving_cells": len(surviving),
            "quarantine_lost_cells": quarantined_cells,
            "recomputed_surviving_cells": 0,
            "second_pass_fully_cached": True,
            "final_quarantine_count": final_health["quarantine_count"],
        },
    }


@pytest.mark.tier2
@pytest.mark.slow
def test_chaos_soak_smoke():
    """Reduced soak: two fault rounds, a kill each, then full convergence."""
    data = run_soak(rounds=2, clients=2, kill_after=3.0, seed=7)
    assert data["soak"]["sigkills"] == 2
    assert data["soak"]["cells_completed"] > 0
    assert data["scrub"]["second_verdict"] == "clean"
    assert data["degraded"]["rejected_cells"] > 0
    assert data["cold_restart"]["recomputed_surviving_cells"] == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--clients", type=int, default=3)
    parser.add_argument("--kill-after", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_chaos_soak.json"),
        metavar="PATH",
    )
    args = parser.parse_args(argv)
    data = run_soak(
        rounds=args.rounds, clients=args.clients,
        kill_after=args.kill_after, seed=args.seed,
    )
    payload = bench_payload("chaos_soak", data)
    write_json_atomic(args.out, payload)
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
