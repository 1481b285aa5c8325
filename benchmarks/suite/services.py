"""Service workloads: ``service-hit`` and ``service-miss``.

The server under test is ``python -m repro serve`` in its own process, so
the load generator's interpreter lock is never part of what is measured.
Load is closed loop: callers of the service (CI jobs, ``repro submit``)
wait for their reply before sending the next request, and there are as
many callers as the sandbox has cores (``inputs.CLIENTS``).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from campaigns import replay_journal
from harness import (
    Outcome,
    Round,
    calibrated_seconds,
    child_env,
    fresh_dir,
    measure_rounds,
    percentile,
    run_probe,
    timed_setups,
    trace_pair,
)
from inputs import (
    CLIENTS,
    MISS_CELLS,
    SETUP_REPEATS,
    hit_order,
    hit_payloads,
    miss_payload,
)

SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 30.0


#: Every server this process started; ``stop_servers`` ends them all.
_STARTED: list["Server"] = []


class Server:
    """One ``repro serve --jobs 1`` subprocess on a fresh archive.

    Whoever starts one calls ``stop_servers()`` in a ``finally``: a server
    is on record before its process exists, so none can be lost between
    being started and being handed to its user.
    """

    def __init__(self, workdir: Path) -> None:
        from repro.service import ServiceClient

        self.proc = None
        _STARTED.append(self)
        self.root = fresh_dir(workdir, "server")
        self.archive_dir = self.root / "archive"
        self.cache_dir = self.root / "graphs"
        self._stdout = open(self.root / "stdout.log", "w+")
        self._stderr = open(self.root / "stderr.log", "w+")
        self.submitted = 0  # submissions this harness issued to the server
        self._client_class = ServiceClient
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "1",
                "--archive-dir", str(self.archive_dir),
                "--cache-dir", str(self.cache_dir),
            ],
            env=child_env(self.root), cwd=self.root,
            stdout=self._stdout, stderr=self._stderr, stdin=subprocess.DEVNULL,
        )
        self.host, self.port = self._await_listening()
        with self.client() as client:
            client.healthz()

    def _await_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        marker = "listening on http://"
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            for line in (self.root / "stdout.log").read_text().splitlines():
                if marker in line:
                    host, port = line.split(marker, 1)[1].rsplit(":", 1)
                    return host, int(port)
            time.sleep(0.005)
        raise RuntimeError(
            "server did not start: " + (self.root / "stderr.log").read_text()[-2000:]
        )

    def client(self):
        return self._client_class(self.host, self.port, timeout=60.0)

    def status(self) -> dict:
        with self.client() as client:
            return client.status()

    def tree_peak_rss_mb(self) -> float:
        """Sum of VmHWM over the server and every descendant (pool workers)."""
        parents = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    stat = Path("/proc", entry, "stat").read_text()
                except OSError:
                    continue  # exited while we were listing
                parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
        tree = {self.proc.pid}
        while True:
            grown = tree | {pid for pid, parent in parents.items() if parent in tree}
            if grown == tree:
                break
            tree = grown
        total_kb = 0
        for pid in tree:
            try:
                status = Path("/proc", str(pid), "status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def handler_exceptions(self) -> int:
        """Request-handler tracebacks on the server's captured stderr."""
        self._stderr.flush()
        return (self.root / "stderr.log").read_text().count(
            "Exception occurred during processing of request"
        )

    def stop(self) -> None:
        """Ask the server to exit, then make sure it has; always reaps,
        also when the asking is cut short by this process being told to
        exit.  Idempotent."""
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                try:
                    with self.client() as client:
                        client.shutdown()
                    self.proc.wait(timeout=SERVER_STOP_TIMEOUT)
                except Exception:  # noqa: BLE001 - any failure ends in kill below
                    pass
        finally:
            if self.proc.poll() is None:
                self.proc.terminate()  # drains, releases its pool, exits
                try:
                    self.proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
            self.proc.wait()
            self._stdout.close()
            self._stderr.close()


def stop_servers() -> None:
    while _STARTED:
        _STARTED.pop().stop()


def _closed_loop(server: Server, clients: list, plans: list[list], submit) -> Round:
    """Every client works through its plan, one submission at a time.

    ``submit(client, item)`` returns one sample; a submission that raises
    (a reply the client gave up on) is recorded as a failed sample and the
    client carries on.  The round's wall time runs from the common start
    to the last reply; its detail is every sample.
    """
    barrier = threading.Barrier(len(clients) + 1)
    samples: list[list] = [[] for _ in clients]

    def drive(slot: int) -> None:
        barrier.wait()
        for item in plans[slot]:
            try:
                samples[slot].append(submit(clients[slot], item))
            except Exception as exc:  # noqa: BLE001 - a lost reply is a failed sample
                samples[slot].append(
                    {"latency": None, "failure": f"{type(exc).__name__}: {exc}"}
                )

    # Daemons: a run told to exit must not wait for their retries first.
    threads = [
        threading.Thread(target=drive, args=(slot,), daemon=True)
        for slot in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    server.submitted += sum(len(plan) for plan in plans)
    flat = [sample for bucket in samples for sample in bucket]
    answered = [sample["latency"] for sample in flat if sample["latency"] is not None]
    return Round(wall, answered, flat)


def _open_clients(server: Server) -> list:
    clients = [server.client() for _ in range(CLIENTS)]
    for client in clients:
        client.healthz()  # connect outside the timed loop
    return clients


def _canonical_cells(events: list[dict]) -> str:
    cells = sorted(
        (event for event in events if event["event"] == "cell"),
        key=lambda event: tuple(event["cell"]),
    )
    return json.dumps([[cell["cell"], cell["result"]] for cell in cells], sort_keys=True)


def _set_up(start, trace: bool):
    """Bring up the server under test: ``SETUP_REPEATS`` times for an
    untraced pass (all but the last server stopped again), once for a
    traced one.  ``start()`` returns ``(server, extra)``; returns that
    pair and every set-up's seconds."""
    return timed_setups(
        start, 1 if trace else SETUP_REPEATS, tear_down=lambda started: started[0].stop()
    )


def _summarize(outcome: Outcome, rounds: list[Round], server: Server, setups: list[float]) -> None:
    """Shared end-to-end arithmetic of both service workloads."""
    samples = [sample for round_ in rounds for sample in round_.detail]
    outcome.attempted = len(samples)
    failures = [sample["failure"] for sample in samples if sample["failure"]]
    outcome.failed = len(failures)
    if failures:
        outcome.info["first_failure"] = failures[0]
    outcome.info["submissions_per_round"] = len(rounds[0].detail)
    outcome.report_end_to_end(setups, rounds, server.tree_peak_rss_mb())


def _server_counts(server: Server, status: dict) -> dict[str, float]:
    """What the server saw, against what this harness sent it."""
    return {
        "service.server.submissions_seen": status["submissions"],
        "service.server.cells_executed": status["cells_executed"],
        "service.server.jobs_executed": status["jobs_executed"],
        "service.server.cells_coalesced": status["cells_coalesced"],
        "service.server.jobs_rejected": status["jobs_rejected"],
        "service.server.engine_restarts": status["engine_restarts"],
        "service.server.hit_rate": status["hit_rate"] or 0.0,
        "service.server.handler_exceptions": server.handler_exceptions(),
        # Submissions the server processed that no caller asked for:
        # ServiceClient stops reading at the terminal event, the unread
        # chunk terminator breaks the next exchange on the kept-alive
        # connection, and the client silently reconnects and re-sends.
        "service.client.resubmit_ratio": (
            (status["submissions"] - server.submitted) / server.submitted
        ),
    }


# ----------------------------------------------------------------------
# service-hit
# ----------------------------------------------------------------------


def service_hit(seed: int, seconds: float, trace: bool, sizes: dict, workdir: Path) -> Outcome:
    outcome = Outcome()
    payloads = hit_payloads(seed)
    per_client = sizes["hit_submissions"]

    def seeded_server() -> tuple[Server, tuple[list[str], int]]:
        """Start a server and execute every frozen campaign once."""
        server = Server(workdir)
        expected = []
        with server.client() as client:
            for payload in payloads:
                events = client.submit_and_collect(payload)
                server.submitted += 1
                if events[-1].get("event") != "done":
                    raise RuntimeError(f"seeding failed: {events[-1]}")
                expected.append(_canonical_cells(events))
            seeded_cells = client.status()["cells_executed"]
        return server, (expected, seeded_cells)

    try:
        (server, (expected, seeded_cells)), setups = _set_up(seeded_server, trace)
        clients = _open_clients(server)

        def submit(client, index: int) -> dict:
            started = time.perf_counter()
            events = client.submit_and_collect(payloads[index])
            latency = time.perf_counter() - started
            done = events[-1]
            failure = None
            if done.get("event") != "done" or done.get("executed") != 0:
                failure = f"not a pure hit: {done}"
            elif _canonical_cells(events) != expected[index]:
                failure = "cached cells differ from the seed pass"
            return {"latency": latency, "failure": failure}

        def one_round(index: int):
            plans = [hit_order(seed, index, slot, per_client) for slot in range(CLIENTS)]
            return _closed_loop(server, clients, plans, submit)

        _closed_loop(  # warm the server's hot cache and both connections
            server, clients, [list(range(len(payloads)))] * CLIENTS, submit
        )
        # The hit path has no stages to stamp, so a traced pass is two
        # identical rounds and its overhead their difference.
        if trace:
            untraced, traced, speed = trace_pair(one_round)
            rounds = [untraced, traced]
        else:
            rounds = measure_rounds(one_round, seconds)
        for client in clients:
            client.close()
        status = server.status()
        _summarize(outcome, rounds, server, setups)
        counts = _server_counts(server, status)
    finally:
        stop_servers()

    outcome.check(
        "no-cell-executed-under-load",
        status["cells_executed"] == seeded_cells,
        f"server executed {status['cells_executed']} cells, {seeded_cells} of them while seeding",
    )
    outcome.check("server-reaped", server.proc.poll() is not None, f"pid {server.proc.pid}")
    outcome.info["server_submissions"] = status["submissions"]
    outcome.info["client_submissions"] = server.submitted
    if not trace:
        return outcome

    client_p50_ms = outcome.metrics["op_p50_ms"]
    outcome.metrics = dict(counts)
    outcome.report_trace_pair(untraced, traced, speed)
    outcome.metrics.update(
        run_probe("protocol", lambda: _protocol_probe(payloads, sizes), PROTOCOL_METRICS)
    )
    inproc = run_probe(
        "in-process service",
        lambda: _inproc_probe(server, payloads, sizes["inproc_samples"]),
        INPROC_METRICS,
    )
    outcome.metrics.update(inproc)
    outcome.metrics["service.http_overhead_ms"] = (
        client_p50_ms - inproc["service.server.inproc_p50_ms"]
    )
    return outcome


PROTOCOL_METRICS = ("service.protocol.parse_us", "store.cellindex.digest_us")
INPROC_METRICS = ("service.server.inproc_p50_ms", "store.archive.cold_hit_ms")


def _protocol_probe(payloads: list[dict], sizes: dict) -> dict[str, float]:
    from repro.service import CampaignRequest
    from repro.store.cellindex import cell_digest, identity_hasher, normalize_cell_key

    def parse_all() -> None:
        for payload in payloads:
            CampaignRequest.from_dict(payload).cell_keys()

    request = CampaignRequest.from_dict(payloads[-1])
    hasher = identity_hasher(request.spec())
    keys = request.cell_keys()

    def digest_all() -> None:
        for key in keys:
            cell_digest(None, normalize_cell_key(key, None), hasher=hasher)

    return {
        "service.protocol.parse_us": (
            calibrated_seconds(parse_all, sizes["calibrate_s"]) / len(payloads) * 1e6
        ),
        "store.cellindex.digest_us": (
            calibrated_seconds(digest_all, sizes["calibrate_s"]) / len(keys) * 1e6
        ),
    }


def _inproc_probe(server: Server, payloads: list[dict], samples: int) -> dict[str, float]:
    """The hit path without HTTP, on the archive the stopped server left.

    A fresh ``BenchmarkService`` has an empty hot cache, so the first
    touch of each campaign reads and digest-verifies the archived runs it
    needs; every later submission is the pure in-memory path.
    """
    from repro.service import BenchmarkService, CampaignRequest

    service = BenchmarkService(
        archive_dir=server.archive_dir, cache_dir=server.cache_dir, jobs=1
    )
    try:
        requests = [CampaignRequest.from_dict(payload) for payload in payloads]
        started = time.perf_counter()
        for request in requests:
            if service.submit_collect(request)[-1].get("executed") != 0:
                raise RuntimeError("in-process first touch was not a pure hit")
        cold_ms = (time.perf_counter() - started) * 1e3
        hot = []
        for sample in range(samples):
            started = time.perf_counter()
            service.submit_collect(requests[sample % len(requests)])
            hot.append(time.perf_counter() - started)
    finally:
        service.shutdown()
    return {
        "service.server.inproc_p50_ms": percentile(hot, 0.50) * 1e3,
        "store.archive.cold_hit_ms": cold_ms,
    }


# ----------------------------------------------------------------------
# service-miss
# ----------------------------------------------------------------------

MISS_STORE_METRICS = (
    "generators.build_s",
    "resilience.journal.record_s",
    "store.archive.archive_run_s",
    "store.cellindex.add_many_s",
)


def _check_miss(events: list[dict]) -> str | None:
    """Every cell of a miss submission was measured for it, none served
    from the archive.

    ``done.executed`` is deliberately not required to be 12: when the
    client silently re-sends a submission (see ``resubmit_ratio``) the
    copy it ends up reading coalesces onto the first copy's in-flight
    cells and reports ``executed == 0``.  That every cell executed exactly
    once is checked on the server's counters after the load.
    """
    done = events[-1]
    if done.get("event") != "done" or done.get("hits") != 0:
        return f"expected a pure miss: {done}"
    cells = [event for event in events if event["event"] == "cell"]
    bad = [
        cell["cell"] for cell in cells
        if cell.get("cached") or not cell.get("result")
        or cell["result"]["status"] != "ok" or not cell["result"]["verified"]
    ]
    if bad or len(cells) != MISS_CELLS:
        return f"{len(cells)} cell events; cached, failed or unverified: {bad}"
    return None


def service_miss(seed: int, seconds: float, trace: bool, sizes: dict, workdir: Path) -> Outcome:
    outcome = Outcome()
    per_client = sizes["miss_submissions"]
    serials = iter(range(1, 1_000_000))

    def warmed_server() -> tuple[Server, None]:
        """Start a server; one throwaway miss makes it spawn its pool."""
        server = Server(workdir)
        with server.client() as client:
            events = client.submit_and_collect(miss_payload(seed, 0))
            server.submitted += 1
        failure = _check_miss(events)
        if failure:
            raise RuntimeError(f"pool warm-up failed: {failure}")
        return server, None

    try:
        (server, _), setups = _set_up(warmed_server, trace)
        clients = _open_clients(server)

        def submit(staged: bool):
            def one(client, serial: int) -> dict:
                payload = miss_payload(seed, serial)
                stamps: list[float] = []
                started = time.perf_counter()
                if staged:  # traced pass: note when each event arrives
                    events = []
                    for event in client.submit(payload):
                        stamps.append(time.perf_counter())
                        events.append(event)
                else:
                    events = client.submit_and_collect(payload)
                latency = time.perf_counter() - started
                sample = {"latency": latency, "failure": _check_miss(events)}
                if staged:
                    sample["stages"] = _stages(started, stamps, events)
                sample["kernel_s"] = sum(
                    statistics.median(event["result"]["trial_seconds"])
                    for event in events
                    if event["event"] == "cell" and event.get("result")
                )
                return sample
            return one

        def one_round(index: int) -> Round:
            """The traced pass stamps the stages of its second round."""
            plans = [[next(serials) for _ in range(per_client)] for _ in range(CLIENTS)]
            return _closed_loop(server, clients, plans, submit(trace and index == 1))

        if trace:
            untraced, traced, speed = trace_pair(one_round)
            rounds = [untraced, traced]
        else:
            rounds = measure_rounds(one_round, seconds)
        for client in clients:
            client.close()
        status = server.status()
        _summarize(outcome, rounds, server, setups)
        counts = _server_counts(server, status)
    finally:
        stop_servers()

    outcome.check(
        "every-cell-executed-once",
        status["cells_executed"] == MISS_CELLS * server.submitted,
        f"server executed {status['cells_executed']} cells for "
        f"{server.submitted} submissions of {MISS_CELLS}",
    )
    outcome.check("server-reaped", server.proc.poll() is not None, f"pid {server.proc.pid}")
    outcome.info["server_submissions"] = status["submissions"]
    outcome.info["client_submissions"] = server.submitted
    outcome.info["cells_per_submission"] = MISS_CELLS
    if not trace:
        return outcome

    from repro.store import RunArchive

    staged = [sample for sample in traced.detail if "stages" in sample]
    outcome.metrics = {
        "kernels.kernel_s": sum(sample["kernel_s"] for sample in staged),
        "store.archive.runs": len(RunArchive(server.archive_dir).list_runs()),
        **counts,
    }
    for position, name in enumerate(
        ("service.accept_ms", "service.first_cell_ms", "service.tail_ms")
    ):
        outcome.metrics[name] = (
            statistics.median(sample["stages"][position] for sample in staged) * 1e3
        )
    outcome.report_trace_pair(untraced, traced, speed)
    outcome.metrics.update(
        run_probe("miss store path", lambda: _miss_store_probe(seed, workdir), MISS_STORE_METRICS)
    )
    return outcome


def _stages(started: float, stamps: list[float], events: list[dict]) -> tuple[float, float, float]:
    """(write -> accepted, accepted -> first cell, last cell -> done)."""
    arrival = {"accepted": None, "first_cell": None, "last_cell": None, "done": stamps[-1]}
    for stamp, event in zip(stamps, events):
        if event["event"] == "accepted":
            arrival["accepted"] = stamp
        elif event["event"] == "cell":
            if arrival["first_cell"] is None:
                arrival["first_cell"] = stamp
            arrival["last_cell"] = stamp
    return (
        arrival["accepted"] - started,
        arrival["first_cell"] - arrival["accepted"],
        arrival["done"] - arrival["last_cell"],
    )


def _miss_store_probe(seed: int, workdir: Path) -> dict[str, float]:
    """What the engine does around the kernels for one miss submission,
    each step alone: graph build, journal, archive, cell-index append."""
    from repro.core import GraphCase, run_suite
    from repro.frameworks import Mode, get
    from repro.service import CampaignRequest
    from repro.store import RunArchive
    from repro.store.cellindex import CellIndex, cell_digest, identity_hasher

    request = CampaignRequest.from_dict(miss_payload(seed, 0))
    spec = request.spec()
    started = time.perf_counter()
    for graph in request.graphs:
        GraphCase.build(graph, scale=spec.scale, seed=spec.seed)
    build_s = time.perf_counter() - started

    frameworks = [get(name) for name in request.frameworks]
    results = run_suite(
        frameworks, request.graphs, request.kernels, spec=spec,
        modes=[Mode(value) for value in request.modes],
    )
    root = fresh_dir(workdir, "probe-store")
    journal = replay_journal(
        spec, request.graphs, request.kernels, request.modes, request.frameworks,
        results, root / "journal.jsonl",
    )
    started = time.perf_counter()
    record = RunArchive(root / "archive").archive_run(results, spec=spec, source="suite:probe")
    archive_s = time.perf_counter() - started

    hasher = identity_hasher(spec)
    items = [
        (cell_digest(None, result.cell_key, hasher=hasher), record.run_id, result.cell_key)
        for result in results
    ]
    with CellIndex(root / "cells.jsonl") as index:
        started = time.perf_counter()
        index.add_many(items)
        add_many_s = time.perf_counter() - started
    return {
        "generators.build_s": build_s,
        "resilience.journal.record_s": journal["resilience.journal.record_s"],
        "store.archive.archive_run_s": archive_s,
        "store.cellindex.add_many_s": add_many_s,
    }
