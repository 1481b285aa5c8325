"""Persistent warm worker pools for the campaign loop's process backend.

The first parallel runner spawned a fresh pool per campaign and paid
for it: at paper scale the cells are milliseconds long, so process
creation, interpreter/module setup, and teardown dominated wall time and
``--jobs 2`` ran at 0.41x of serial.  This module makes the pool a
long-lived object:

* **Spawn once** — :class:`WorkerPool` starts its workers at
  construction and keeps them alive across campaigns.  A campaign is a
  *message* (``begin_campaign``), not a pool lifetime: benchmarks and
  the benchmark service hand the same pool handle to successive
  ``run_suite(..., pool=...)`` calls and pay spawn cost exactly once.
* **Lazy attach** — workers receive the shared-memory corpus handles
  with the campaign message but attach each graph only when a cell
  first needs it, so a resumed campaign whose remaining cells touch one
  graph never maps the others.
* **Lazy framework imports** — frameworks travel as pickled blobs and
  are unpickled in the worker on first use, so a worker that only ever
  runs ``gap`` cells never imports the other five framework stacks
  (under ``spawn`` contexts, unpickling is what triggers the import).
* **Batched dispatch** — the unit of work is a *batch* of cells
  (:mod:`repro.core.batching`): one queue message, one pickle, one
  wakeup per batch.  Workers still report ``start`` / ``cell`` per
  member, so supervision, telemetry, retries, and the journal all stay
  per-cell.

The pool is transport only: scheduling policy (deadlines, retries,
breakers, crash accounting) lives in :mod:`repro.core.campaign`, whose
process backend owns the bookkeeping of what each slot was assigned.  Messages carry a
campaign sequence number; anything from a previous campaign (e.g. after
an abort on a reused pool) is dropped at :meth:`WorkerPool.get`.
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal
import time
from contextlib import ExitStack
from typing import Mapping

from .. import faults
from .runner import failed_result, run_attempt
from .sharedmem import AttachedCase, SharedCaseHandle, attach_case
from .spec import BenchmarkSpec
from .telemetry import STATUS_ERROR, Telemetry

__all__ = ["WorkerPool"]


class _LazyFrameworks:
    """Worker-side framework registry: unpickle (and import) on first use."""

    def __init__(self, blobs: Mapping[str, bytes]) -> None:
        self._blobs = dict(blobs)
        self._loaded: dict[str, object] = {}

    def get(self, name: str):
        if name not in self._loaded:
            self._loaded[name] = pickle.loads(self._blobs[name])
        return self._loaded[name]


class _LazyCorpus:
    """Worker-side corpus: attach each graph's segment on first use."""

    def __init__(self, handles: Mapping[str, SharedCaseHandle]) -> None:
        self._handles = dict(handles)
        self._attached: dict[str, AttachedCase] = {}

    def get(self, graph: str):
        if graph not in self._attached:
            self._attached[graph] = attach_case(self._handles[graph])
        return self._attached[graph].case

    def close(self) -> None:
        for attachment in self._attached.values():
            attachment.close()
        self._attached.clear()


def _worker_main(slot: int, tasks, results) -> None:
    """Warm-worker loop: configure per campaign, drain batches until sentinel.

    Runs on the worker's main thread, so the cell's in-process SIGALRM
    deadline is armed and catches interruptible overruns without costing a
    process kill; the parent's hard kill is the backstop for the rest.
    Each campaign's fault plan is installed for as long as it runs.
    """
    if hasattr(signal, "SIGTERM"):
        # Undo any graceful_shutdown handler inherited over fork: a worker
        # the parent terminates should just die, not raise CampaignAborted.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    spec: BenchmarkSpec | None = None
    seq = -1
    corpus: _LazyCorpus | None = None
    frameworks: _LazyFrameworks | None = None
    telemetry = Telemetry()
    plan_scope = ExitStack()
    try:
        while True:
            task = tasks.get()
            if task is None:
                results.put(("exit", slot))
                return
            kind = task[0]
            if kind == "campaign":
                _, seq, spec, handles, blobs, track_memory, plan = task
                plan_scope.close()
                plan_scope.enter_context(faults.installed(*plan))
                if corpus is not None:
                    corpus.close()
                corpus = _LazyCorpus(handles)
                frameworks = _LazyFrameworks(blobs)
                telemetry = Telemetry(track_memory=track_memory)
                continue
            _, task_seq, items = task
            if task_seq != seq:  # batch from a campaign that was reset
                continue
            for cell, attempt in items:
                results.put(("start", slot, seq, cell.index, attempt))
                try:
                    case = corpus.get(cell.graph)
                    framework = frameworks.get(cell.framework)
                except Exception as exc:
                    # Failed before its framework/graph even materialized.
                    result = failed_result(cell, STATUS_ERROR, exc)
                else:
                    result, _ = run_attempt(
                        framework, cell, case, spec, telemetry, attempt
                    )
                spans = [span.as_dict() for span in telemetry.spans]
                telemetry.spans.clear()
                results.put(("cell", slot, seq, cell.index, attempt, result, spans))
    finally:
        plan_scope.close()
        if corpus is not None:
            corpus.close()


class WorkerPool:
    """A pool of warm worker processes, reusable across campaigns.

    Construction spawns the workers; :meth:`begin_campaign` (re)configures
    them for one campaign and returns a sequence number that stamps all of
    that campaign's messages.  The process backend drives slots explicitly:
    :meth:`submit` hands one batch to one slot, :meth:`get` yields worker
    messages, :meth:`respawn` replaces a dead or killed worker (the
    replacement is configured for the current campaign automatically).

    ``fork`` is preferred (shares the already-imported interpreter state);
    ``spawn`` is the portable fallback — the campaign message carries
    everything a cold interpreter needs.
    """

    def __init__(self, jobs: int, context: str | None = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if context is None:
            methods = multiprocessing.get_all_start_methods()
            context = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(context)
        # SimpleQueue, deliberately: its put() pickles and writes to the
        # pipe *synchronously* (no feeder thread), so once a worker has
        # reported a cell the message survives even if the worker crashes
        # on the very next batch member.  A buffered Queue would lose the
        # completed results still sitting in its feeder thread, and the
        # parent would re-run cells that already finished.
        self._results = self._ctx.SimpleQueue()
        self._retired: list[object] = []
        self._slots: dict[int, dict[str, object]] = {}
        self._seq = 0
        self._campaign: tuple | None = None
        self._closed = False
        for slot in range(jobs):
            self._spawn(slot)

    @property
    def jobs(self) -> int:
        return len(self._slots)

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` ran; a closed pool cannot be reused."""
        return self._closed

    def pids(self) -> dict[int, int | None]:
        """Slot → worker PID (stable across campaigns unless respawned)."""
        return {slot: s["process"].pid for slot, s in self._slots.items()}

    def _spawn(self, slot: int) -> None:
        tasks = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main, args=(slot, tasks, self._results), daemon=True
        )
        process.start()
        self._slots[slot] = {"process": process, "queue": tasks}
        if self._campaign is not None:
            tasks.put(("campaign", self._seq, *self._campaign))

    def begin_campaign(
        self,
        spec: BenchmarkSpec,
        handles: Mapping[str, SharedCaseHandle],
        frameworks: Mapping[str, object],
        track_memory: bool = False,
    ) -> int:
        """Configure every worker for one campaign; returns its sequence.

        Dead workers are replaced first, so a reused pool always starts a
        campaign at full strength.  Frameworks are pickled once here and
        unpickled lazily in workers on first use.  The fault plan active
        here now is the one the workers run the campaign under.
        """
        if self._closed:
            # A long-lived owner (the benchmark service) must hear about a
            # lifecycle bug immediately, not via hung queue operations.
            raise RuntimeError("WorkerPool is shut down; create a new pool")
        self._seq += 1
        blobs = {name: pickle.dumps(fw) for name, fw in frameworks.items()}
        self._campaign = (
            spec, dict(handles), blobs, track_memory, faults.active_plan()
        )
        for slot in list(self._slots):
            if not self._slots[slot]["process"].is_alive():
                self.respawn(slot)  # respawn sends the campaign message
            else:
                self._slots[slot]["queue"].put(("campaign", self._seq, *self._campaign))
        return self._seq

    def submit(self, slot: int, items: list) -> None:
        """Dispatch one batch of ``(cell, attempt)`` pairs to one slot."""
        self._slots[slot]["queue"].put(("batch", self._seq, list(items)))

    def get(self, timeout: float | None = None):
        """Next worker message, stripped of its campaign stamp, or None.

        Stale messages (from a campaign that has since been reset on this
        pool) are dropped here so the backend never sees them.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            # SimpleQueue has no get(timeout=); poll the read end instead.
            if not self._results._reader.poll(remaining):
                return None
            message = self._results.get()
            kind = message[0]
            if kind == "exit":
                return message
            if message[2] != self._seq:
                continue
            if kind == "start":
                _, slot, _, index, attempt = message
                return ("start", slot, index, attempt)
            _, slot, _, index, attempt, result, spans = message
            return ("cell", slot, index, attempt, result, spans)

    def get_nowait(self):
        """Like :meth:`get` but never blocks."""
        return self.get(timeout=0.0)

    def is_alive(self, slot: int) -> bool:
        """Whether the worker currently occupying ``slot`` is running."""
        return self._slots[slot]["process"].is_alive()

    def exitcode(self, slot: int) -> int | None:
        """Exit code of the worker in ``slot`` (``None`` while alive)."""
        return self._slots[slot]["process"].exitcode

    def respawn(self, slot: int) -> None:
        """Replace one worker (killing it first if still alive).

        The replacement gets a *fresh* task queue so it can never consume
        a batch the backend already reported as lost, and is configured
        for the current campaign before it sees any work.
        """
        state = self._slots[slot]
        process = state["process"]
        if process.is_alive():
            process.terminate()
            process.join(1.0)
            if process.is_alive():  # pragma: no cover - SIGTERM blocked
                process.kill()
                process.join(1.0)
        self._retired.append(state["queue"])
        self._spawn(slot)

    def reset(self) -> None:
        """Kill and respawn every worker, discarding in-flight work.

        Used when a campaign on a shared pool aborts: the pool stays
        usable for the next campaign.  The replacements report on a results
        queue of their own: a worker killed inside ``results.put()`` dies
        holding the old queue's write lock (and may leave half a message
        in its pipe), and anyone sharing it would block for good.
        """
        self._results.close()
        self._results = self._ctx.SimpleQueue()
        for slot in list(self._slots):
            self.respawn(slot)

    def shutdown(self) -> None:
        """Stop all workers and release queues.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for state in self._slots.values():
            if state["process"].is_alive():
                state["queue"].put(None)
        for state in self._slots.values():
            process = state["process"]
            process.join(5.0)
            if process.is_alive():
                process.terminate()
                process.join(1.0)
        self._results.close()
        queues = [state["queue"] for state in self._slots.values()]
        for q in [*queues, *self._retired]:
            q.close()
            q.cancel_join_thread()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False
