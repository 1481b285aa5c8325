"""One campaign loop — plan → dispatch → settle — over an execution backend.

The paper's method is one measurement protocol applied identically to
every framework; :func:`run_suite` is the one place that protocol is
driven from, in three steps:

* **plan** — resolve the axes and dataset provenance, open (or resume)
  the checkpoint journal, enumerate the cells once in canonical order
  (:func:`~repro.core.batching.enumerate_cells`), pre-fill the cells a
  journal or the caller already holds, and group the rest into dispatch
  batches (:func:`~repro.core.batching.plan_batches`);
* **dispatch** — hand the next batch to an idle backend slot;
* **settle** — route every reported attempt through the resilience
  policy, which exists exactly once (:class:`_CampaignState`): schedule
  a retry after its deterministic backoff, or finalize — strict-mode
  check first, then the circuit breaker (an opened combo is pruned out
  of still-queued batches as ``skipped`` cells), then the durable
  journal append, then ``on_result``.

A :class:`Backend` knows only transport — where a batch runs and how its
cells are reported back — so every backend observes the same policy and
``tests/test_campaign_loop.py`` can script one.  Three exist:

==================  ==========  ===========  ===========
capability          inline      threads      processes
==================  ==========  ===========  ===========
runs cells on       the caller  worker       warm worker
                    thread      threads      processes
trial deadline      SIGALRM     post-hoc     SIGALRM, then
                    (soft)      (soft)       a hard kill
survives a crash    no          no           yes — only the
of a cell                                    in-flight cell
                                             is lost
corpus              one graph   built once,  built once,
                    at a time   shared by    published over
                                reference    shared memory
live exception      yes         no           no
for strict mode
dispatch            one cell    cost-model   cost-model batches;
                    at a time   batches      a lone worker gets
                                             one more queued
                                             ahead unless a hard
                                             deadline is set
==================  ==========  ===========  ===========

Every cell still runs the exact measurement protocol of
:func:`~repro.core.runner.run_cell` through the one isolating wrapper
:func:`~repro.core.runner.run_attempt`, so results are interchangeable
across backends; ``tests/test_executor_matrix.py`` pins that.

Backends report three events, all keyed by ``(cell index, attempt)``:

* ``("start", index, attempt, note)`` — the attempt began executing;
* ``("cell", index, attempt, result, spans, exc)`` — it finished:
  its :class:`RunResult`, its telemetry spans (empty when the backend
  wrote them to the campaign's collector itself), and the live exception
  if the backend still holds it;
* ``("lost", index, attempt, status, message, wall, tail)`` — the
  worker running it was killed or died; ``tail`` is the unstarted rest
  of its batch, which the loop re-queues untouched.
"""

from __future__ import annotations

import os
import queue as queue_mod
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Protocol

from ..errors import CellFailedError, TrialTimeoutError
from ..frameworks.base import KERNELS, Framework, Mode
from ..graphs.cache import GraphCache
from ..resilience.breaker import CircuitBreaker
from ..resilience.retry import RetryPolicy
from ..resilience.signals import graceful_shutdown
from .batching import Cell, enumerate_cells, plan_batches
from .pool import WorkerPool
from .results import ResultSet, RunResult
from .runner import GraphCase, build_case, failed_result, load_or_build_case, run_attempt
from .sharedmem import SharedCase, attach_case
from .spec import BenchmarkSpec
from .telemetry import STATUS_ERROR, STATUS_SKIPPED, STATUS_TIMEOUT, Span, Telemetry

if TYPE_CHECKING:  # layering: the journal lives above repro.core
    from ..resilience.journal import CheckpointJournal

__all__ = ["Backend", "KILL_GRACE_SECONDS", "run_suite"]

#: How long a backend may block waiting for worker events.
_POLL_SECONDS = 0.05

#: Extra wall-clock headroom past a cell's summed trial budgets before the
#: process backend hard-kills the worker (covers prepare/verify and IPC
#: latency).
KILL_GRACE_SECONDS = 2.0

#: A dispatch batch: ``(cell, attempt)`` pairs in execution order.
Batch = list[tuple[Cell, int]]


class Backend(Protocol):
    """Where batches run and how their cells are reported: transport only.

    Retry, breaker, journal and strict-mode decisions are the loop's; a
    backend never sees them.  ``slots`` is how many batches it runs at
    once.
    """

    slots: int

    def open(self, graphs: list[str]) -> None:
        """Prepare to run cells of ``graphs`` (the still-needed corpus)."""

    def idle(self) -> list[int]:
        """Slots that can take a batch now."""

    def submit(self, slot: int, batch: Batch) -> None:
        """Start running ``batch`` on an idle ``slot``."""

    def events(self, timeout: float) -> Iterator[tuple]:
        """Yield what happened since the last call (see the module
        docstring), blocking at most ``timeout`` seconds for news."""

    def close(self, clean: bool) -> None:
        """Release everything; ``clean`` is False for an aborted campaign."""


def _parent_span(cell: Cell, result: RunResult, wall: float = 0.0) -> Span:
    """The trace record of a cell no worker reported on.

    Built directly (not via ``Telemetry.span``) because nothing executed
    here: a breaker-skipped cell carries zero wall time and the skip
    reason, a lost cell the time its worker held it and a synthetic error
    — keeping the trace one record per attempt either way.
    """
    span = Span(
        name="cell",
        attributes={
            "framework": cell.framework,
            "kernel": cell.kernel,
            "graph": cell.graph,
            "mode": cell.mode.value,
        },
        status=result.status,
        wall_seconds=wall,
    )
    if result.status == STATUS_SKIPPED:
        span.attributes["skip_reason"] = result.error
    else:
        span.error = {
            "type": (
                "TrialTimeoutError" if result.status == STATUS_TIMEOUT else "WorkerCrash"
            ),
            "message": result.error,
            "traceback": "",
        }
    return span


class _CampaignState:
    """The settle policy: per-cell accounting, identical on every backend.

    Owns canonical result assembly, the pending batch queue, retry
    scheduling, circuit-breaker skips (including pruning queued batches),
    journal appends, ``on_result`` and strict-mode fail-fast.
    """

    def __init__(
        self,
        cells: list[Cell],
        spec: BenchmarkSpec,
        tel: Telemetry,
        journal: CheckpointJournal | None,
        strict: bool,
        completed: Mapping[tuple[str, str, str, str], RunResult],
        on_result: Callable[[Cell, RunResult], None] | None,
    ) -> None:
        self.cells = cells
        self.tel = tel
        self.journal = journal
        self.strict = strict
        self.on_result = on_result
        self.policy = RetryPolicy(retries=spec.retries)
        self.breaker = CircuitBreaker(spec.breaker_threshold)
        #: Cells the caller or a resumed journal already holds are neither
        #: executed nor journaled again.
        self.results_by_index: dict[int, RunResult] = {
            cell.index: completed[cell.key] for cell in cells if cell.key in completed
        }
        #: Batches ready for a slot, in canonical order; a due retry
        #: rejoins at the front as a singleton batch.
        self.pending: deque[Batch] = deque()
        #: Retries waiting out their backoff: (ready_at, cell, attempt).
        self.retry_waiting: list[tuple[float, Cell, int]] = []
        #: (index, attempt) pairs already settled, so a kill racing a late
        #: "cell" report of the same attempt cannot account a cell twice.
        self.accounted: set[tuple[int, int]] = set()

    @property
    def done(self) -> bool:
        return len(self.results_by_index) >= len(self.cells)

    def runnable(self) -> list[Cell]:
        return [c for c in self.cells if c.index not in self.results_by_index]

    def _commit(self, cell: Cell, result: RunResult) -> None:
        """A cell's final result: durable first, then announced.

        The only place the journal is appended to.  ``on_result`` comes
        after it, so a streamed result is always at least as durable as
        what a resume would reconstruct.
        """
        self.results_by_index[cell.index] = result
        if self.journal is not None:
            self.journal.record(result)
        if self.on_result is not None:
            self.on_result(cell, result)

    def _surviving(self, batch: Batch) -> Batch:
        """``batch`` minus the cells an open breaker turns into skips."""
        surviving = []
        for cell, attempt in batch:
            if self.breaker.is_open(cell.framework, cell.kernel):
                result = failed_result(
                    cell, STATUS_SKIPPED, self.breaker.reason(cell.framework, cell.kernel)
                )
                self.tel.ingest(_parent_span(cell, result))
                self._commit(cell, result)
            else:
                surviving.append((cell, attempt))
        return surviving

    def next_batch(self) -> Batch | None:
        """Pop the next dispatchable batch, skipping open-breaker cells."""
        while self.pending:
            batch = self._surviving(self.pending.popleft())
            if batch:
                return batch
        return None

    def release_retries(self, now: float) -> None:
        """Move retries whose backoff has elapsed to the front of the queue."""
        due = [entry for entry in self.retry_waiting if entry[0] <= now]
        for entry in reversed(due):
            self.retry_waiting.remove(entry)
            self.pending.appendleft([entry[1:]])

    def settle(
        self,
        cell: Cell,
        result: RunResult,
        attempt: int,
        exc: BaseException | None = None,
    ) -> None:
        """Route one reported attempt: schedule a retry, or finalize it.

        Strict mode raises *before* committing anything: the failing cell
        is never journaled, so a resumed campaign re-executes it instead
        of restoring the failure.  When the breaker opens, its combo is
        pruned out of still-queued batches member by member — surviving
        cells of a batch stay batched, an emptied batch is dropped.
        """
        if not result.ok and self.policy.should_retry(
            result.status, result.error, attempt
        ):
            ready_at = time.monotonic() + self.policy.backoff_seconds(attempt)
            self.retry_waiting.append((ready_at, cell, attempt + 1))
            return
        if self.strict and not result.ok:
            if exc is not None:
                raise exc
            if result.status == STATUS_TIMEOUT:
                raise TrialTimeoutError(f"cell {cell.label}: {result.error}")
            raise CellFailedError(f"cell {cell.label} failed: {result.error}")
        result.attempts = attempt + 1
        opened = self.breaker.record(cell.framework, cell.kernel, result.ok)
        self._commit(cell, result)
        if opened:
            self.pending = deque(
                batch for batch in map(self._surviving, self.pending) if batch
            )

    def result_set(self, meta: dict[str, object]) -> ResultSet:
        return ResultSet(
            [self.results_by_index[index] for index in range(len(self.cells))],
            meta=meta,
        )


def _drive(
    state: _CampaignState,
    backend: Backend,
    progress: Callable[[str], None] | None,
) -> None:
    """Dispatch and settle until every cell has a result."""
    while not state.done:
        if backend.slots == 1 and state.retry_waiting:
            # One slot overlaps nothing, so dispatching a later cell during
            # a backoff buys no time and costs the canonical journal and
            # progress order: wait, then the retry is dispatched next.
            ready_at = min(entry[0] for entry in state.retry_waiting)
            time.sleep(max(0.0, ready_at - time.monotonic()))
        state.release_retries(time.monotonic())
        for slot in backend.idle():
            batch = state.next_batch()
            if batch is None:
                break
            backend.submit(slot, batch)
        for kind, index, attempt, *detail in backend.events(_POLL_SECONDS):
            cell = state.cells[index]
            if kind == "start":
                if progress is not None:
                    progress(cell.label + detail[0])
                continue
            if kind == "lost":
                # Only the in-flight head is lost; the rest of the batch
                # never started and goes back to the front of the queue.
                status, message, wall, tail = detail
                if tail:
                    state.pending.appendleft(tail)
                result, exc = failed_result(cell, status, message), None
                spans = [_parent_span(cell, result, wall)]
            else:
                result, spans, exc = detail
            if (index, attempt) in state.accounted:
                continue
            state.accounted.add((index, attempt))
            for span in spans:
                state.tel.ingest(span)
            state.settle(cell, result, attempt, exc)


class _InlineBackend:
    """Runs each batch on the caller's thread, inside :meth:`events`.

    Being on the caller's (normally the main) thread is what keeps the
    SIGALRM trial deadline and ``graceful_shutdown`` working.  The corpus
    is built one graph at a time, on first use, and dropped when the
    graph-major cell order moves on — so peak memory is one graph and a
    graph whose cells are all pre-filled is never built.
    """

    slots = 1

    def __init__(self, spec, frameworks, cache, tel) -> None:
        self._spec, self._frameworks, self._cache, self._tel = spec, frameworks, cache, tel
        self._case: GraphCase | None = None
        self._batch: Batch = []

    def open(self, graphs: list[str]) -> None:
        pass

    def idle(self) -> list[int]:
        return [] if self._batch else [0]

    def submit(self, slot: int, batch: Batch) -> None:
        self._batch = batch

    def events(self, timeout: float) -> Iterator[tuple]:
        batch, self._batch = self._batch, []
        for cell, attempt in batch:
            if self._case is None or self._case.name != cell.graph:
                self._case = None  # release the previous graph first
                self._case = build_case(
                    cell.graph, self._spec, self._cache, telemetry=self._tel
                )
            yield ("start", cell.index, attempt, "")
            result, exc = run_attempt(
                self._frameworks[cell.framework], cell, self._case,
                self._spec, self._tel, attempt,
            )
            yield ("cell", cell.index, attempt, result, (), exc)

    def close(self, clean: bool) -> None:
        self._case = None


def _thread_worker(slot, tasks, results, spec, cases, frameworks, track_memory) -> None:
    """Thread-backend worker loop: drain batches until the sentinel.

    Runs off the main thread, so per-trial deadlines degrade to the soft
    post-hoc check (see :class:`~repro.core.telemetry.TrialDeadline`) —
    an over-budget trial is still recorded as a timeout, it just cannot
    be interrupted mid-flight.
    """
    telemetry = Telemetry(track_memory=track_memory)
    while (batch := tasks.get()) is not None:
        for cell, attempt in batch:
            results.put(("start", cell.index, attempt, ""))
            result, _ = run_attempt(
                frameworks[cell.framework], cell, cases[cell.graph],
                spec, telemetry, attempt,
            )
            spans, telemetry.spans = telemetry.spans, []
            results.put(("cell", cell.index, attempt, result, spans, None))
        results.put(("idle", slot))


class _ThreadBackend:
    """Worker threads sharing this process's corpus by reference.

    No shared-memory publication, no pickling, no process spawn: the
    cheapest dispatch for GIL-releasing NumPy kernels, and ``Span``
    objects are handed over as they are.  The trade is isolation: threads
    cannot be killed, so deadlines are soft, nothing is ever ``lost``,
    and an injected process crash takes the whole campaign with it.
    """

    def __init__(self, slots: int, spec, frameworks, cache, tel) -> None:
        self.slots = slots
        self._spec, self._frameworks, self._cache, self._tel = spec, frameworks, cache, tel
        self._results: queue_mod.Queue = queue_mod.Queue()
        self._tasks = [queue_mod.Queue() for _ in range(slots)]
        self._busy = [False] * slots
        self._threads: list[threading.Thread] = []

    def open(self, graphs: list[str]) -> None:
        # The GraphCase arrays are read-only by convention and every
        # kernel allocates its own outputs, so sharing them is safe.
        cases = {
            name: build_case(name, self._spec, self._cache, telemetry=self._tel)
            for name in graphs
        }
        for slot, tasks in enumerate(self._tasks):
            thread = threading.Thread(
                target=_thread_worker,
                args=(
                    slot, tasks, self._results, self._spec, cases,
                    self._frameworks, self._tel.track_memory,
                ),
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def idle(self) -> list[int]:
        return [slot for slot, busy in enumerate(self._busy) if not busy]

    def submit(self, slot: int, batch: Batch) -> None:
        self._busy[slot] = True
        self._tasks[slot].put(batch)

    def events(self, timeout: float) -> Iterator[tuple]:
        try:
            message = self._results.get(timeout=timeout)
            while True:
                if message[0] == "idle":
                    self._busy[message[1]] = False
                else:
                    yield message
                message = self._results.get_nowait()
        except queue_mod.Empty:
            return

    def close(self, clean: bool) -> None:
        for tasks in self._tasks:
            tasks.put(None)
        for thread in self._threads:
            # Busy threads finish their current batch first; they are
            # daemons, so an abandoned (strict-abort) campaign never
            # blocks interpreter exit on them.
            thread.join(timeout=5.0)


class _ProcessBackend:
    """Warm worker processes over a shared-memory corpus.

    Workers come from a :class:`~repro.core.pool.WorkerPool` — borrowed
    from the caller (who keeps ownership) or created and shut down here.
    Process isolation is what turns ``spec.trial_timeout`` into a *hard*
    deadline: the backend records what each slot was assigned, restarts
    the slot's clock on every ``start`` echo, and kills a worker whose
    in-flight cell exceeds its trial budgets plus
    :data:`KILL_GRACE_SECONDS`.  A killed or dead worker is replaced at
    once and reported as ``lost``; a cell whose worker died twice is run
    in this process instead of burning a third one.

    A lone worker never waits on this process: without a hard deadline
    it takes its next batch while its last cell is still outstanding, so
    one batch is queued behind the one in flight.  Freshly built graphs
    are written to the graph cache only after the first batch is on its
    way, whatever the worker count.
    """

    def __init__(self, slots: int, pool: WorkerPool | None, spec, frameworks, cache, tel):
        self.slots = slots
        self._pool = pool
        self._own_pool = pool is None
        self._spec, self._frameworks, self._cache, self._tel = spec, frameworks, cache, tel
        self._shared: dict[str, SharedCase] = {}
        #: Slot → the batch tail the worker has not reported back yet; the
        #: head is the in-flight cell.
        self._assigned: dict[int, deque[tuple[Cell, int]]] = {}
        self._started: dict[int, float] = {}
        self._deadline: dict[int, float | None] = {}
        #: Worker deaths per cell index — two means crash loop.
        self._deaths: dict[int, int] = {}
        self._in_parent: deque[tuple[Cell, int]] = deque()
        #: Graph-cache writes of freshly built cases, run after dispatch.
        self._stores: list[Callable[[], None]] = []

    def _budget(self, cell: Cell) -> float:
        """Hard wall-clock budget of one cell (sum of trial deadlines + grace)."""
        spec = self._spec
        return spec.trial_timeout * spec.num_trials(cell.kernel) + KILL_GRACE_SECONDS

    def _batch_deadline(self, batch: Iterable[tuple[Cell, int]], now: float):
        if self._spec.trial_timeout is None:
            return None
        return now + sum(self._budget(cell) for cell, _ in batch)

    def open(self, graphs: list[str]) -> None:
        # Build the still-needed corpus once (cache-aware) and publish it;
        # the cache writes wait for the first dispatch.
        for name in graphs:
            case, store = load_or_build_case(
                name, self._spec, self._cache, telemetry=self._tel
            )
            self._shared[name] = SharedCase(case)
            if store is not None:
                self._stores.append(store)
        if self._pool is None:
            self._pool = WorkerPool(self.slots)
        self._pool.begin_campaign(
            self._spec,
            {name: shared.handle for name, shared in self._shared.items()},
            self._frameworks,
            self._tel.track_memory,
        )
        for slot in range(self._pool.jobs):
            self._assigned[slot] = deque()
            self._started[slot] = 0.0
            self._deadline[slot] = None
        # A lone worker has no sibling to take the next batch, so it holds
        # one more than the cell it runs.  Several workers take batches as
        # they free up, which balances load and leaves a batch nobody holds
        # to the breaker's pruning; a hard deadline queues nothing behind a
        # cell that may be killed.
        self._ahead = int(self._pool.jobs == 1 and self._spec.trial_timeout is None)

    def idle(self) -> list[int]:
        return [
            slot
            for slot, batch in self._assigned.items()
            if len(batch) <= self._ahead and self._pool.is_alive(slot)
        ]

    def submit(self, slot: int, batch: Batch) -> None:
        if self._deaths.get(batch[0][0].index, 0) >= 2:
            # Two dead workers in a row for one cell: a third is likely to
            # burn another process for nothing.  events() runs it here.
            self._in_parent.extend(batch)
            return
        assigned = self._assigned[slot]
        if not assigned:  # a batch queued ahead has no deadline to extend
            now = self._started[slot] = time.monotonic()
            self._deadline[slot] = self._batch_deadline(batch, now)
        assigned.extend(batch)
        self._pool.submit(slot, batch)
        self._store_corpus()

    def _store_corpus(self) -> None:
        """Write the freshly built graphs to the cache, while workers run."""
        stores, self._stores = self._stores, []
        for store in stores:
            store()

    def _run_in_parent(self, cell: Cell, attempt: int) -> Iterator[tuple]:
        """Crash-loop fallback: attach to our own segment (zero-copy) and
        run the cell in this process."""
        yield ("start", cell.index, attempt, " (in-parent)")
        begun = time.monotonic()
        attachment = attach_case(self._shared[cell.graph].handle)
        try:
            result, _ = run_attempt(
                self._frameworks[cell.framework], cell, attachment.case,
                self._spec, self._tel, attempt,
            )
        finally:
            attachment.close()
        # The workers could not be watched meanwhile: give the time back.
        elapsed = time.monotonic() - begun
        for slot, deadline in self._deadline.items():
            if deadline is not None:
                self._deadline[slot] = deadline + elapsed
        yield ("cell", cell.index, attempt, result, (), None)

    def events(self, timeout: float) -> Iterator[tuple]:
        if self._in_parent:
            while self._in_parent:
                yield from self._run_in_parent(*self._in_parent.popleft())
            return
        pool = self._pool
        # A worker already dead now has written its last message, so the
        # drain below reads it: a cell it finished is never reported lost
        # with it.  One that dies during the drain is judged next call.
        dead = {slot for slot in self._assigned if not pool.is_alive(slot)}
        # Drain every queued message before supervising deadlines, so a
        # "cell" that arrived while the parent was busy is never mistaken
        # for an overrun.
        message = pool.get(timeout=timeout)
        while message is not None:
            if message[0] != "exit":  # "exit" only occurs during shutdown
                kind, slot, index, attempt = message[:4]
                batch = self._assigned[slot]
                is_head = bool(batch) and batch[0][0].index == index
                now = time.monotonic()
                if kind == "start":
                    # The echo restarts the deadline clock, so queue
                    # latency and batch predecessors never eat into a
                    # cell's kill budget.
                    if is_head:
                        self._started[slot] = now
                        if self._spec.trial_timeout is not None:
                            self._deadline[slot] = now + self._budget(batch[0][0])
                    yield ("start", index, attempt, "")
                else:
                    if is_head:
                        batch.popleft()
                        self._started[slot] = now
                        self._deadline[slot] = (
                            self._batch_deadline(batch, now) if batch else None
                        )
                    spans = [Span.from_dict(record) for record in message[5]]
                    yield ("cell", index, attempt, message[4], spans, None)
            message = pool.get_nowait()

        now = time.monotonic()
        for slot, batch in self._assigned.items():
            alive = slot not in dead
            if not batch:
                if not alive:  # died while idle: keep dispatch flowing
                    pool.respawn(slot)
                continue
            deadline = self._deadline[slot]
            if alive and (deadline is None or now <= deadline):
                continue
            cell, attempt = batch.popleft()
            if alive:
                status = STATUS_TIMEOUT
                message_text = (
                    f"hard deadline: cell exceeded {self._budget(cell):.6g}s "
                    f"({self._spec.num_trials(cell.kernel)} trial(s) x "
                    f"{self._spec.trial_timeout:.6g}s + "
                    f"{KILL_GRACE_SECONDS:.6g}s grace); worker killed"
                )
            else:
                status = STATUS_ERROR
                message_text = (
                    f"worker process died mid-cell (exit code {pool.exitcode(slot)})"
                )
                self._deaths[cell.index] = self._deaths.get(cell.index, 0) + 1
            tail = list(batch)
            batch.clear()
            self._deadline[slot] = None
            pool.respawn(slot)
            yield ("lost", cell.index, attempt, status, message_text,
                   now - self._started[slot], tail)

    def close(self, clean: bool) -> None:
        self._store_corpus()  # an abort before the first dispatch
        if self._pool is not None:
            if self._own_pool:
                self._pool.shutdown()
            elif not clean or any(self._assigned.values()):
                # The caller's warm pool survives an aborted campaign, but
                # its workers may be mid-cell: replace them so the next
                # campaign starts clean (stale messages are stamp-filtered).
                self._pool.reset()
        for shared in self._shared.values():
            shared.close(unlink=True)


def run_suite(
    frameworks: Iterable[Framework],
    graph_names: Iterable[str],
    kernels: Iterable[str] = KERNELS,
    modes: Iterable[Mode] = (Mode.BASELINE, Mode.OPTIMIZED),
    spec: BenchmarkSpec | None = None,
    progress: Callable[[str], None] | None = None,
    telemetry: Telemetry | None = None,
    strict: bool = False,
    jobs: int | None = None,
    cache: GraphCache | None = None,
    journal: str | os.PathLike | CheckpointJournal | None = None,
    resume: bool = False,
    completed: Mapping[tuple[str, str, str, str], RunResult] | None = None,
    on_result: Callable[[Cell, RunResult], None] | None = None,
    pool: WorkerPool | None = None,
) -> ResultSet:
    """Run a campaign — the only campaign entry point; returns all cell results.

    One bad (framework, kernel, graph) cell does not take down the
    campaign: exceptions and deadline overruns become structured
    ``error``/``timeout`` results (traced by ``telemetry``) and every
    other cell still runs.  ``strict=True`` restores fail-fast: the first
    cell to fail for good aborts the campaign before it is journaled,
    re-raising the cell's own exception when it ran on this thread and
    :class:`~repro.errors.CellFailedError` /
    :class:`~repro.errors.TrialTimeoutError` naming the cell otherwise.

    ``jobs`` (default ``spec.jobs``) picks the backend (see the module
    docstring): ``1`` runs cells inline on this thread; more shards
    batches of cells across warm worker processes, or across threads with
    ``spec.pool == "threads"``.  ``pool`` lends a warm
    :class:`~repro.core.pool.WorkerPool` to the process backend (the
    caller keeps ownership and it sets the worker count); without one a
    pool lives for this call only.  ``cache`` routes graph building
    through a persistent on-disk cache.

    ``progress(label)`` fires once per attempt that starts executing —
    retries included — and never for a pre-filled or breaker-skipped
    cell.

    Resilience, identical on every backend:

    * ``journal`` — path of a checkpoint journal; every finalized cell is
      durably appended.  With ``resume=True`` an existing journal is
      validated against this campaign's fingerprint and its cells are
      *not* re-executed.  An already open
      :class:`~repro.resilience.journal.CheckpointJournal` is appended to
      as it is and left open — its header is the caller's.
    * ``completed`` — cell key → result for cells the caller already
      holds; like resumed cells they slot into the returned set at their
      canonical positions and are neither executed, journaled nor
      announced, and a graph none of whose cells remain is never built.
    * ``on_result(cell, result)`` — called once per finalized cell
      (breaker skips included), right after its journal append.
    * ``spec.retries`` — transient cell failures re-execute with
      deterministic backoff; ``RunResult.attempts`` counts executions.
    * ``spec.breaker_threshold`` — after that many consecutive hard
      failures of one (framework, kernel), its remaining cells become
      ``skipped`` results.
    * SIGTERM raises :class:`~repro.errors.CampaignAborted`, so the
      journal is flushed and resources are released on the way out.
    """
    spec = spec or BenchmarkSpec()
    tel = telemetry if telemetry is not None else Telemetry()
    effective_jobs = spec.jobs if jobs is None else int(jobs)
    frameworks = {framework.name: framework for framework in frameworks}
    framework_names = list(frameworks)
    graph_names = list(graph_names)
    kernels = list(kernels)
    modes = list(modes)
    mode_values = [mode.value for mode in modes]
    # Lazy: repro.store, the journal (which needs it) and the dataset
    # registry sit above repro.core in the layering.
    from ..graphs.datasets import graph_identities
    from ..resilience.journal import CheckpointJournal, campaign_fingerprint
    from ..store.environment import fingerprint

    # Resolve any file-backed dataset references up front: an unreadable
    # file fails the campaign before anything executes, and the resulting
    # provenance map (ref -> path/digest/format) rides in the results meta,
    # the archive manifest, and the journal fingerprint so every consumer
    # can identify cells by content digest without touching the file.
    _, dataset_provenance = graph_identities(graph_names)
    meta: dict[str, object] = {
        "spec": spec.as_dict(),
        "environment": fingerprint(),
        "graphs": graph_names,
        "kernels": kernels,
        "modes": mode_values,
        "frameworks": framework_names,
        "jobs": effective_jobs,
        "pool": spec.pool,
    }
    if dataset_provenance:
        meta["datasets"] = dataset_provenance

    completed = dict(completed or {})
    journal_obj = journal
    if isinstance(journal, (str, os.PathLike)):
        cell_fingerprint = campaign_fingerprint(
            spec, graph_names, kernels, mode_values, framework_names,
            datasets=dataset_provenance or None,
        )
        if resume:
            journal_obj, resumed = CheckpointJournal.resume(journal, cell_fingerprint)
            completed.update(resumed)
        else:
            journal_obj = CheckpointJournal.create(journal, cell_fingerprint)

    try:
        cells = enumerate_cells(graph_names, modes, kernels, framework_names)
        state = _CampaignState(
            cells, spec, tel, journal_obj, strict, completed, on_result
        )
        meta["resilience"] = {
            "retries": spec.retries,
            "breaker_threshold": spec.breaker_threshold,
            "journal": str(journal_obj.path) if journal_obj is not None else None,
            "resumed_cells": len(state.results_by_index),
        }
        runnable = state.runnable()
        if runnable:
            slots = (
                pool.jobs if pool is not None
                else max(1, min(effective_jobs, len(runnable)))
            )
            common = (spec, frameworks, cache, tel)
            backend: Backend
            batch_size = spec.batch_size
            if pool is not None or (effective_jobs > 1 and spec.pool != "threads"):
                backend = _ProcessBackend(slots, pool, *common)
            elif effective_jobs > 1:
                backend = _ThreadBackend(slots, *common)
            else:
                backend, batch_size = _InlineBackend(*common), 1
            state.pending.extend(
                [(cell, 0) for cell in batch]
                for batch in plan_batches(runnable, spec, slots, batch_size)
            )
            clean = False
            try:
                with graceful_shutdown():
                    backend.open(list(dict.fromkeys(c.graph for c in runnable)))
                    _drive(state, backend, progress)
                clean = True
            finally:
                backend.close(clean)
    finally:
        if journal_obj is not None and journal_obj is not journal:
            journal_obj.close()
    results = state.result_set(meta)
    meta["resilience"]["skipped_cells"] = len(results.skipped())
    return results
