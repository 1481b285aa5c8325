"""The memoizing benchmark server.

Decisions and I/O live apart.  :class:`_CellTable` is the thread-free
core — the digest → run map, the hot cache, the in-flight table, the
counters and the one lock, the archive behind one injected ``load``
callable.
:class:`BenchmarkService` is the shell of threads and files around it,
one method per stage so that a stage boundary is a function boundary;
the HTTP layer at the bottom of the module is a thin threaded front end
on :mod:`socketserver` — one request loop per connection that reads the
service's small HTTP/1.1 itself, writes reply heads built once per
status, and sends each group of ready events in one write.

A **submission** (:meth:`BenchmarkService.submit_events`, on the caller's
thread) is ``_resolve`` (spec, dataset provenance, one
:class:`~repro.store.cellindex.CellIdentity`, a digest per cell) →
``_classify`` (under the table's lock each cell becomes a *hit* — hot, or
loaded from the archived run the table's map names for it — a
*subscription* to an identical cell already executing (request
coalescing), an *owned miss*, or, on a degraded server, a *rejected*
miss) → ``_enqueue`` (the owned misses as one job on the bounded queue; a
full queue fails the claims, so nobody who subscribed to them meanwhile
waits for a job that never runs) → ``_stream`` (``accepted``, the hits as
pre-encoded lines, cells as the engine publishes them, a terminal event —
grouped by readiness, an empty line wherever the stream is about to wait).
Over HTTP (:meth:`BenchmarkService.submit_body`) a body is resolved once:
:class:`_ResolvedBodies` keeps the resolution of each recent body, so a
repeat goes straight to ``_classify``, and when every cell is then a hit
its reply is the memo's ``accepted`` line, the hit lines and its ``done``.

A **job** (the single engine thread, :meth:`BenchmarkService._execute`)
is ``_plan`` (the smallest axes covering the owned cells, the rest of
that grid pre-filled from the hot cache) → ``_journal`` (per-job
checkpoint journal) → ``_run`` (:func:`repro.core.campaign.run_suite` on
the one warm :class:`~repro.core.pool.WorkerPool` all submissions share;
each finalized cell is fsynced to the journal *before* it is published)
→ ``_commit`` (the executed cells archived as one content-addressed run;
the table maps each ok cell's digest to that run and memoizes it; failed
cells are archived for the record, never memoized — a re-submission
re-executes them) → ``_finish`` (journal unlinked, owner told the run
id).  ``repro serve --resume`` recovers a crashed server's journals
through the same ``_commit``.  The map itself is never written: a server
derives it from ``runs/`` when it starts
(:func:`~repro.store.cellindex.derive_index_entries`).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import re
import shutil
import signal
import socketserver
import threading
import time
from collections import OrderedDict
from http import HTTPStatus
from pathlib import Path
from queue import Empty, Full, Queue, SimpleQueue
from typing import Callable, Iterable, Iterator, NamedTuple

from ..core.batching import canonical_order
from ..core.campaign import run_suite
from ..core.pool import WorkerPool
from ..core.results import ResultSet, RunResult
from ..core.spec import BenchmarkSpec
from ..errors import JournalError, ReproError, ServiceError
from ..frameworks import Mode
from ..frameworks.registry import get as get_framework
from ..graphs.cache import GraphCache
from ..graphs.datasets import graph_identities
from ..resilience.journal import CheckpointJournal, campaign_fingerprint, read_journal
from ..store.archive import RunArchive
from ..store.cellindex import CellIdentity, CellKey, derive_index_entries
from ..store.integrity import (
    last_scrub_report,
    quarantine_count,
    quarantine_run,
    verify_run,
)
from .protocol import (
    CampaignRequest,
    HeadTooLarge,
    TornMessage,
    encode_event,
    read_fields,
    read_line,
)

__all__ = ["BenchmarkService", "ServiceHTTPServer", "serve_forever"]

#: Cells kept in the in-memory hot cache (evicted entries reload from
#: the archive on next touch; the digest → run map is never evicted).
RESULT_CACHE_SIZE = 65536

#: Distinct ``/submit`` bodies kept resolved (LRU), and the largest body
#: kept: a repeat of one skips the parse, the validation and every digest.
#: A campaign request is under 1 KB; an entry's size grows with its cells.
RESOLVED_BODIES = 256
RESOLVED_BODY_BYTES = 4096

#: Campaigns allowed to wait for the engine before submissions bounce.
DEFAULT_MAX_PENDING_JOBS = 16

#: Disk low-watermark: below this many free bytes at the archive root
#: the service degrades to hits-only read-only mode instead of risking
#: half-written runs.  Overridable per server (``--min-free-mb``).
DEFAULT_MIN_FREE_BYTES = 64 * 1024 * 1024

#: Retry hint carried by ``degraded`` rejection events.
DEGRADED_RETRY_AFTER_SECONDS = 30.0

#: How often the watchdog checks that the engine thread is alive.
DEFAULT_WATCHDOG_INTERVAL = 1.0


def _cell_line(
    digest: str,
    key: CellKey,
    result: RunResult | None,
    run_id: str | None = None,
    error: str | None = None,
) -> bytes:
    """The one ``cell`` event encoder: a cached cell when it names the
    archived ``run_id`` it is served from, else a freshly measured one —
    or, with no ``result`` but an ``error``, one that will not be measured."""
    event = {
        "event": "cell",
        "digest": digest,
        "cell": list(key),
        "cached": run_id is not None,
        "run_id": run_id,
        "result": None if result is None else result.as_dict(),
    }
    if error is not None:
        event["error"] = error
    return encode_event(event)


def _accepted_line(
    request: CampaignRequest, cells: int, hits: int, pending: int, rejected: int
) -> bytes:
    """The one ``accepted`` event encoder."""
    return encode_event(
        {
            "event": "accepted",
            "campaign": request.campaign_id,
            "cells": cells,
            "hits": hits,
            "pending": pending,
            **({"rejected": rejected} if rejected else {}),
        }
    )


def _done_line(
    request: CampaignRequest, cells: int, hits: int, executed: int, run_id: str | None
) -> bytes:
    """The one terminal ``done`` event encoder."""
    return encode_event(
        {
            "event": "done",
            "campaign": request.campaign_id,
            "cells": cells,
            "hits": hits,
            "executed": executed,
            "fresh_run_id": run_id,
        }
    )


def _error_line(request: CampaignRequest, message: str) -> bytes:
    """The one terminal ``error`` event encoder."""
    return encode_event(
        {"event": "error", "campaign": request.campaign_id, "message": message}
    )


class _Inflight:
    """One currently-executing cell: who to notify, and the result so far."""

    __slots__ = ("subscribers", "line")

    def __init__(self) -> None:
        self.subscribers: list[SimpleQueue] = []
        self.line: bytes | None = None


class _CellTable:
    """Every decision about a cell, and no I/O.

    Owns the digest → run_id map of every ok cell the archive holds, the
    hot cache (digest → pre-encoded hit line; LRU, the map being
    complete), the in-flight table, the counters and the one lock that
    orders them.  Knows no thread, socket, pool, file or clock: the
    archive is the injected ``load(run_id)``, called with the lock held,
    which yields ``(digest, hit line)`` for every servable cell of that
    run — nothing for a run that can no longer be served.
    """

    def __init__(
        self,
        load: Callable[[str], Iterable[tuple[str, bytes]]],
        runs: dict[str, str],
    ) -> None:
        self._load = load
        self._lock = threading.Lock()
        #: digest → run_id, seeded from the archive; the table's from now on.
        self.runs = runs
        self.results: "OrderedDict[str, bytes]" = OrderedDict()
        self.inflight: dict[str, _Inflight] = {}
        self.stats: dict[str, int] = {
            "submissions": 0,
            "cells_requested": 0,
            "cells_hit": 0,
            "cells_coalesced": 0,
            "cells_executed": 0,
            "jobs_executed": 0,
            "jobs_rejected": 0,
            "jobs_failed": 0,
            "cells_recovered": 0,
            "engine_restarts": 0,
            "submissions_degraded": 0,
            "cells_degraded_rejected": 0,
            "runs_quarantined": 0,
            "connections_reset": 0,
            "submissions_from_memo": 0,
        }

    def _hit_line(self, digest: str) -> bytes | None:
        """Pre-encoded hit event for a digest, or None (lock held)."""
        line = self.results.get(digest)
        if line is None:
            run_id = self.runs.get(digest)
            if run_id is None:
                return None
            for loaded, loaded_line in self._load(run_id):
                self.results.setdefault(loaded, loaded_line)
            self._evict()
            line = self.results.get(digest)
            if line is None:
                return None
        self.results.move_to_end(digest)
        return line

    def _evict(self) -> None:
        while len(self.results) > RESULT_CACHE_SIZE:
            self.results.popitem(last=False)

    def classify(
        self,
        cells: list[CellKey],
        digests: list[str],
        queue: SimpleQueue,
        degraded_reasons: list[str] | None,
    ):
        """Split one submission's cells into hits, subscriptions, owned
        misses and rejected misses: ``(hit_lines, owned, pending,
        rejected)``.

        ``degraded_reasons=None`` means admission has not been probed: if
        any cell would have to be claimed, nothing is touched and the
        result is ``None`` — the caller probes and asks again.
        """
        hit_lines: list[bytes] = []
        owned: list[tuple[str, CellKey]] = []
        pending: set[str] = set()
        rejected: list[CellKey] = []
        with self._lock:
            lines = [self._hit_line(digest) for digest in digests]
            if degraded_reasons is None and any(
                line is None and digest not in self.inflight
                for line, digest in zip(lines, digests)
            ):
                return None
            self.stats["submissions"] += 1
            self.stats["cells_requested"] += len(cells)
            if degraded_reasons:
                self.stats["submissions_degraded"] += 1
            for key, digest, line in zip(cells, digests, lines):
                if line is not None:
                    hit_lines.append(line)
                    self.stats["cells_hit"] += 1
                    continue
                entry = self.inflight.get(digest)
                if entry is not None:
                    self.stats["cells_coalesced"] += 1
                    if entry.line is not None:
                        # Already finished executing, not yet archived:
                        # replay the streamed event instead of waiting.
                        hit_lines.append(entry.line)
                    else:
                        entry.subscribers.append(queue)
                        pending.add(digest)
                    continue
                if degraded_reasons:
                    rejected.append(key)
                    self.stats["cells_degraded_rejected"] += 1
                    continue
                self.inflight[digest] = _Inflight()
                self.inflight[digest].subscribers.append(queue)
                owned.append((digest, key))
                pending.add(digest)
        return hit_lines, owned, pending, rejected

    def fail(
        self, owned: list[tuple[str, CellKey]], message: str, counter: str
    ) -> None:
        """Give up ``owned`` claims that will never be measured: each
        leaves the in-flight table, and every subscriber of one not yet
        published is sent an error ``cell`` line, so nobody waits for it.
        ``counter`` is the stat that says why — ``jobs_failed`` (the job
        raised, or the engine died under it) or ``jobs_rejected`` (its
        owner bounced off a full queue)."""
        with self._lock:
            self.stats[counter] += 1
            for digest, key in owned:
                entry = self.inflight.pop(digest, None)
                if entry is None or entry.line is not None:
                    continue
                line = _cell_line(digest, key, None, error=message)
                for subscriber in entry.subscribers:
                    subscriber.put(("cell", digest, line))

    def publish(self, digest: str, line: bytes) -> None:
        """A cell finished executing: every subscriber gets its line, and
        the entry keeps it for submissions arriving before the commit."""
        with self._lock:
            self.stats["cells_executed"] += 1
            entry = self.inflight.get(digest)
            if entry is not None:
                entry.line = line
                for subscriber in entry.subscribers:
                    subscriber.put(("cell", digest, line))

    def commit(self, cells: list[tuple[str, CellKey, RunResult]], run_id: str) -> None:
        """``cells`` were archived as ``run_id``: the ok ones are mapped to
        it and become hits, and all of them leave the in-flight table."""
        with self._lock:
            for digest, key, result in cells:
                if result.ok:
                    self.runs[digest] = run_id
                    self.results[digest] = _cell_line(digest, key, result, run_id)
                    self.results.move_to_end(digest)
                self.inflight.pop(digest, None)
            self._evict()

    def fillers(self, digests: Iterable[str]) -> list[tuple[str, bytes]]:
        """``(digest, hit line)`` of each digest that is hot right now (no
        load, no touch: a job's grid-fillers, not a client's read)."""
        with self._lock:
            hot = self.results
            return [(digest, hot[digest]) for digest in digests if digest in hot]

    def count(self, name: str, amount: int = 1) -> None:
        """Add to one counter."""
        with self._lock:
            self.stats[name] += amount

    def snapshot(self) -> tuple[dict[str, int], int, int, int]:
        """``(stats copy, in-flight cells, hot cells, mapped cells)`` at
        one instant."""
        with self._lock:
            return (
                dict(self.stats),
                len(self.inflight),
                len(self.results),
                len(self.runs),
            )


class _Resolved(NamedTuple):
    """One request, resolved: what its cells are called, in canonical order."""

    request: CampaignRequest
    spec: BenchmarkSpec
    #: Its ``datasets`` is the dataset provenance, None for generators only.
    identity: CellIdentity
    cells: list[CellKey]
    digests: list[str]


class _ResolvedBodies:
    """The bounded memo of ``/submit`` bodies: exact body bytes → the
    resolved campaign and its pure-hit ``accepted`` and ``done`` lines.

    What a body resolves to is a function of its bytes and of this
    process, except for a dataset reference, whose digest follows a file
    that can change: such a body is never stored.  Neither is a refused
    one, nor one over :data:`RESOLVED_BODY_BYTES`.  At most
    :data:`RESOLVED_BODIES` entries, the least recently used evicted.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: body → (resolved, (accepted line, done line))
        self.entries: "OrderedDict[bytes, tuple[_Resolved, tuple[bytes, bytes]]]" = (
            OrderedDict()
        )

    def get(self, body: bytes) -> "tuple[_Resolved, tuple[bytes, bytes]] | None":
        with self._lock:
            entry = self.entries.get(body)
            if entry is not None:
                self.entries.move_to_end(body)
            return entry

    def put(self, body: bytes, resolved: _Resolved) -> None:
        if resolved.identity.datasets is not None or len(body) > RESOLVED_BODY_BYTES:
            return
        request, cells = resolved.request, len(resolved.cells)
        entry = (
            resolved,
            (
                _accepted_line(request, cells, cells, 0, 0),
                _done_line(request, cells, cells, 0, None),
            ),
        )
        with self._lock:
            self.entries[body] = entry
            while len(self.entries) > RESOLVED_BODIES:
                self.entries.popitem(last=False)


class _Job(NamedTuple):
    """One enqueued execution: a request's owned misses."""

    request: CampaignRequest
    spec: BenchmarkSpec
    #: Its ``datasets`` is the provenance resolved at submission.
    identity: CellIdentity
    #: ``[(digest, cell_key), ...]`` in canonical order.
    owned: list[tuple[str, CellKey]]
    queue: SimpleQueue
    seq: int


class BenchmarkService:
    """Memoize-or-execute campaign server core (transport-agnostic)."""

    def __init__(
        self,
        archive_dir: str | Path | None = None,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        journal_dir: str | Path | None = None,
        max_pending_jobs: int = DEFAULT_MAX_PENDING_JOBS,
        resume: bool = False,
        min_free_bytes: int = DEFAULT_MIN_FREE_BYTES,
        watchdog_interval: float = DEFAULT_WATCHDOG_INTERVAL,
    ) -> None:
        self.archive = RunArchive(archive_dir)
        self.min_free_bytes = int(min_free_bytes)
        self.journal_dir = (
            Path(journal_dir)
            if journal_dir is not None
            else self.archive.root / "journals"
        )
        self.jobs = max(1, int(jobs))
        self.cache = GraphCache(cache_dir) if cache_dir is not None else GraphCache()
        self._table = _CellTable(self._load, dict(derive_index_entries(self.archive)))
        self._bodies = _ResolvedBodies()
        self.stats = self._table.stats
        self._inflight = self._table.inflight
        self._queue: "Queue[_Job | None]" = Queue(maxsize=max(1, int(max_pending_jobs)))
        self._pool: WorkerPool | None = None
        self._job_seq = itertools.count(1)  # next() is one atomic C call
        self._started_at = time.time()
        self._closed = False
        self._draining = False
        #: Written by the live engine thread, read by the watchdog only
        #: once that thread is dead: never two threads at a time.
        self._engine_job: _Job | None = None
        self._watchdog_interval = max(0.05, float(watchdog_interval))
        self.recovery_report: list[dict[str, object]] = []
        if resume:
            self.recovery_report = self._recover_journals()
        self._engine = self._spawn_engine()
        self._watchdog = threading.Thread(
            target=self._watchdog_loop, name="service-watchdog", daemon=True
        )
        self._watchdog.start()

    def _spawn_engine(self) -> threading.Thread:
        engine = threading.Thread(
            target=self._engine_loop, name="service-engine", daemon=True
        )
        engine.start()
        return engine

    # -- submission (handler threads) -----------------------------------

    def submit_events(self, request: CampaignRequest) -> Iterator[bytes]:
        """Process one submission; returns its encoded NDJSON event lines,
        grouped by readiness.

        Resolve, classify and enqueue happen in the call; the iterator is
        the stream stage alone — hits at once, then blocking between
        events while misses execute.  Where the stream is about to block,
        it yields an empty line (never an event): every line since the
        last one was ready together and can leave in one write.  A pure
        hit has no such line at all.
        """
        try:
            resolved = self._resolve(request)
        except ServiceError as exc:
            return iter((_error_line(request, str(exc)),))
        return self._submit(resolved)

    def submit_body(self, body: bytes) -> Iterator[bytes]:
        """:meth:`submit_events` for the bytes of a ``/submit`` body,
        resolved once per distinct body (see :class:`_ResolvedBodies`).

        A repeat is a lookup and a classification; when every cell is a
        hit its reply is the stored ``accepted``, the hit lines and the
        stored ``done``, the very bytes :meth:`_stream` writes.  A body
        that is not a campaign request raises :class:`ServiceError` or
        :class:`ValueError` before anything is classified or stored.
        """
        memo = self._bodies.get(body)
        if memo is not None:
            self._table.count("submissions_from_memo")
            return self._submit(*memo)
        request = CampaignRequest.from_dict(json.loads(body or b"{}"))
        try:
            resolved = self._resolve(request)
        except ServiceError as exc:
            return iter((_error_line(request, str(exc)),))
        self._bodies.put(body, resolved)
        return self._submit(resolved)

    def _resolve(self, request: CampaignRequest) -> _Resolved:
        """The spec, identity, cells and digests of one request.

        Dataset files live on the *server's* filesystem, so a reference
        that does not resolve is a :class:`~repro.errors.ServiceError`
        for a structured error event — not a protocol rejection, and
        certainly not an engine crash.
        """
        spec = request.spec()
        try:
            _, datasets = graph_identities(request.graphs)
        except ReproError as exc:
            raise ServiceError(f"dataset resolution failed: {exc}") from exc
        identity = CellIdentity(spec, datasets=datasets)
        cells = request.cell_keys()
        return _Resolved(
            request, spec, identity, cells, [identity.digest(key) for key in cells]
        )

    def _submit(
        self, resolved: _Resolved, hit_reply: tuple[bytes, bytes] | None = None
    ) -> Iterator[bytes]:
        """Classify, enqueue and stream one resolved submission.

        ``hit_reply`` is a memoized body's ``(accepted, done)`` pair: a
        submission whose every cell is then a hit or a replayed line is
        answered with them around its hit lines, without :meth:`_stream`.
        """
        request, cells = resolved.request, resolved.cells
        queue: SimpleQueue = SimpleQueue()
        hit_lines, owned, pending, rejected, reasons = self._classify(
            cells, resolved.digests, queue
        )
        if hit_reply is not None and len(hit_lines) == len(cells):
            return iter((hit_reply[0], *hit_lines, hit_reply[1]))
        job: _Job | None = None
        if owned:
            job = _Job(
                request,
                resolved.spec,
                resolved.identity,
                owned,
                queue,
                next(self._job_seq),
            )
            refusal = self._enqueue(job)
            if refusal is not None:
                return iter((_error_line(request, refusal),))
        return self._stream(
            request, len(cells), hit_lines, pending, rejected, reasons, queue, job
        )

    def _classify(self, cells, digests, queue: SimpleQueue):
        """Admission: the table's ``classify`` tuple plus the degraded
        reasons it was decided under.

        With disk under its watermark — or the server draining — new
        *misses* are rejected before anything is claimed or enqueued, so
        a resource-critical submission can never cause a partial write.
        Hits and subscriptions are read-only, still served, and never pay
        for the probe (it reads the filesystem): a first pass that finds
        a cell to execute changes nothing, the probe runs outside the
        lock, and the pass is made again.
        """
        reasons: list[str] = []
        classified = self._table.classify(cells, digests, queue, None)
        if classified is None:
            reasons = self.degraded_reasons()
            classified = self._table.classify(cells, digests, queue, reasons)
        return (*classified, reasons)

    def _enqueue(self, job: _Job) -> str | None:
        """Queue a job for the engine; returns None, or why it bounced.

        A bounced job's claims are failed, not dropped: whoever subscribed
        to one since it was classified gets an error cell, not a wait for
        a job that will never run.
        """
        try:
            self._queue.put_nowait(job)
        except Full:
            refusal = (
                f"server at capacity: {self._queue.maxsize} campaigns already queued"
            )
            self._table.fail(job.owned, refusal, "jobs_rejected")
            return refusal
        return None

    def _stream(
        self,
        request: CampaignRequest,
        cells: int,
        hit_lines: list[bytes],
        pending: set[str],
        rejected: list[CellKey],
        reasons: list[str],
        queue: SimpleQueue,
        job: _Job | None,
    ) -> Iterator[bytes]:
        """The event stream of one classified (and enqueued) submission,
        an empty line before each wait (see :meth:`submit_events`)."""
        yield _accepted_line(
            request, cells, len(hit_lines), len(pending), len(rejected)
        )
        yield from hit_lines

        fresh_run_id: str | None = None
        failure: str | None = None
        awaiting_finish = job is not None
        while pending or awaiting_finish:
            try:
                message = queue.get_nowait()
            except Empty:
                yield b""
                message = queue.get()
            kind = message[0]
            if kind == "cell":
                _, digest, line = message
                pending.discard(digest)
                yield line
            elif kind == "finish":
                awaiting_finish = False
                fresh_run_id = message[1]
            elif kind == "fatal":
                awaiting_finish = False
                failure = message[1]
                # The engine already resolved this job's owned cells with
                # error events; anything still pending belongs to other
                # jobs and will drain normally.
                pending -= {digest for digest, _ in (job.owned if job else [])}

        if failure is not None:
            yield _error_line(request, failure)
        elif rejected:
            # Terminal degraded rejection: every cached cell above was
            # still served; the listed misses were refused without any
            # write.  Structured, never a 5xx.
            yield encode_event(
                {
                    "event": "degraded",
                    "campaign": request.campaign_id,
                    "cells": cells,
                    "hits": len(hit_lines),
                    "rejected": len(rejected),
                    "rejected_cells": [list(key) for key in rejected],
                    "reasons": reasons,
                    "retry_after_seconds": DEGRADED_RETRY_AFTER_SECONDS,
                }
            )
        else:
            yield _done_line(
                request,
                cells,
                len(hit_lines),
                len(job.owned) if job else 0,
                fresh_run_id,
            )

    def submit_collect(self, request: CampaignRequest) -> list[dict[str, object]]:
        """Decoded event list for one submission (test/in-process use)."""
        return [json.loads(line) for line in self.submit_events(request) if line]

    # -- the table's way to the archive ---------------------------------

    def _load(self, run_id: str) -> Iterator[tuple[str, bytes]]:
        """The table's ``load`` (its lock is held): every ok cell of the
        archived run ``run_id``.

        The run is integrity-verified before anything from it is served:
        a run whose payload no longer matches its manifest digests is
        quarantined on the spot and treated as a miss — corrupt bytes
        are never streamed to a client, they are re-measured.
        """
        try:
            record = self.archive.lookup(run_id)
            problems = verify_run(record.path)
            if problems:
                try:
                    quarantine_run(self.archive, run_id)
                except OSError:
                    pass  # still refuse to serve it, even unquarantined
                self.stats["runs_quarantined"] += 1
                return
            results = record.load_results()
        except (ReproError, OSError, ValueError):
            return
        identity = CellIdentity.recorded(record.manifest)
        if identity is None:
            return
        for result in results:
            if result.ok:
                loaded = identity.digest(result.cell_key)
                yield loaded, _cell_line(loaded, result.cell_key, result, run_id)

    # -- execution engine (single thread) -------------------------------

    def _engine_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            self._engine_job = job
            try:
                self._execute(job)
                self._table.count("jobs_executed")
            except Exception as exc:  # noqa: BLE001 - engine must survive
                self._fail_job(job, exc)
            # Deliberately NOT a finally: a BaseException (SystemExit,
            # MemoryError escalation, interpreter teardown) kills this
            # thread with the job still marked in-flight, and the
            # watchdog uses that mark to resolve the orphaned job's
            # subscribers before restarting the engine.
            self._engine_job = None

    def _watchdog_loop(self) -> None:
        """Restart a crashed engine thread without dropping subscribers.

        A job-level failure is already contained by :meth:`_engine_loop`
        (the job resolves with error events and the engine survives).
        This watchdog covers the remaining case — the engine *thread*
        dying — by resolving whatever job it held (so coalesced waiters
        unblock instead of hanging forever) and spawning a fresh engine
        that continues with the queued jobs.
        """
        while not self._closed:
            time.sleep(self._watchdog_interval)
            # In this order: shutdown() sets _closed *before* it stops the
            # engine, so an engine seen dead for that reason is seen closed.
            if self._engine.is_alive() or self._closed:
                continue
            orphan, self._engine_job = self._engine_job, None
            self._table.count("engine_restarts")
            if orphan is not None:
                self._fail_job(
                    orphan,
                    ServiceError("engine thread crashed mid-job; engine restarted"),
                )
            self._engine = self._spawn_engine()

    def _execute(self, job: _Job) -> None:
        """One job's owned misses: plan → journal → run → commit → finish."""
        axes, completed = self._plan(job)
        journal = self._journal(job, axes)
        results = self._run(job, axes, completed, journal)
        campaign = job.request.campaign_id
        run_id = self._commit(
            results,
            job.identity,
            # The journal header under the full spec: the archived run and
            # the journal name the same axes, environment and provenance.
            {
                **journal.fingerprint,
                "spec": job.spec.as_dict(),
                "service": {"campaign": campaign, "job": job.seq},
            },
            f"service:{campaign}",
        )
        self._finish(job, journal, run_id)

    def _plan(self, job: _Job):
        """``(axes, completed)``: what ``run_suite`` is asked for.

        It runs a cross-product grid: the axes are the smallest ``(graphs,
        modes, kernels, frameworks)`` covering the owned cells, and every
        other cell of that grid is pre-filled from the hot cache so that
        nothing already measured re-executes (a filler absent from the
        cache, e.g. a previously failed cell, simply does).
        """
        request = job.request
        owned_keys = {key for _, key in job.owned}
        axes = tuple(
            [value for value in axis if any(key[i] == value for key in owned_keys)]
            for i, axis in enumerate(
                (request.graphs, request.modes, request.kernels, request.frameworks)
            )
        )
        wanted = {
            job.identity.digest(key): key
            for key in canonical_order(*axes)
            if key not in owned_keys
        }
        completed = {
            wanted[digest]: RunResult.from_dict(json.loads(line)["result"])
            for digest, line in self._table.fillers(wanted)
        }
        return axes, completed

    def _journal(self, job: _Job, axes) -> CheckpointJournal:
        """The job's checkpoint journal, header written — here, not by
        ``run_suite`` from a path: the header must carry the provenance
        resolved at submission, the basis of this job's cell digests and
        of recovery's, not a second resolution at execution time."""
        graphs, modes, kernels, frameworks = axes
        datasets = {
            ref: entry
            for ref, entry in (job.identity.datasets or {}).items()
            if ref in graphs
        }
        return CheckpointJournal.create(
            self.journal_dir / f"job-{job.request.campaign_id}-{job.seq}.jsonl",
            campaign_fingerprint(
                job.spec, graphs, kernels, modes, frameworks, datasets=datasets or None
            ),
        )

    def _run(
        self, job: _Job, axes, completed, journal: CheckpointJournal
    ) -> list[RunResult]:
        """Measure the plan on the shared warm pool, publishing each cell
        as it lands; returns exactly the executed cells, canonical order."""
        graphs, modes, kernels, frameworks = axes
        executed: dict[CellKey, RunResult] = {}

        def on_result(cell, result: RunResult) -> None:
            key = cell.key
            executed[key] = result
            digest = job.identity.digest(key)
            self._table.publish(digest, _cell_line(digest, key, result))

        if self._pool is None or self._pool.closed:
            self._pool = WorkerPool(self.jobs)
        try:
            run_suite(
                [get_framework(name) for name in frameworks],
                graphs,
                kernels=kernels,
                modes=[Mode(value) for value in modes],
                spec=job.spec,
                cache=self.cache,
                journal=journal,
                completed=completed,
                on_result=on_result,
                pool=self._pool,
            )
        finally:
            journal.close()
        return [executed[key] for key in canonical_order(*axes) if key in executed]

    def _commit(
        self,
        results: list[RunResult],
        identity: CellIdentity,
        meta: dict[str, object],
        source: str,
    ) -> str:
        """Cells enter the store — a job's and a recovered journal's
        alike: archived as one run, then mapped and memoized by the table;
        returns the run id."""
        run_id = self.archive.archive_run(
            ResultSet(results, meta=meta), spec=meta["spec"], source=source
        ).run_id
        cells = [
            (identity.digest(result.cell_key), result.cell_key, result)
            for result in results
        ]
        self._table.commit(cells, run_id)
        return run_id

    def _finish(self, job: _Job, journal: CheckpointJournal, run_id: str) -> None:
        """The cells are durable elsewhere: drop the journal, tell the owner."""
        journal.path.unlink(missing_ok=True)
        job.queue.put(("finish", run_id))

    def _fail_job(self, job: _Job, exc: BaseException) -> None:
        """Resolve a crashed job: error events out, inflight marks cleared."""
        message = f"campaign execution failed: {type(exc).__name__}: {exc}"
        self._table.fail(job.owned, message, "jobs_failed")
        job.queue.put(("fatal", message))

    # -- recovery -------------------------------------------------------

    def _recover_journals(self) -> list[dict[str, object]]:
        """Commit completed cells from crashed jobs' journals.

        Each journal header carries the campaign fingerprint (topology-
        free spec + environment + dataset provenance), exactly what a
        :class:`CellIdentity` is made of — so recovered cells become
        ordinary hits: a client re-submitting the interrupted campaign
        gets every journaled cell back with a real run_id and zero
        re-execution.
        """
        reports: list[dict[str, object]] = []
        if not self.journal_dir.is_dir():
            return reports
        for path in sorted(self.journal_dir.glob("*.jsonl")):
            try:
                recorded, completed = read_journal(path)
            except (JournalError, OSError) as exc:
                reports.append({"journal": path.name, "error": str(exc)})
                continue
            identity = CellIdentity.recorded(recorded)
            if identity is not None and completed:
                datasets = identity.datasets
                try:
                    run_id = self._commit(
                        list(completed.values()),
                        identity,
                        {
                            "spec": recorded["spec"],
                            "environment": recorded.get("environment"),
                            "service": {"recovered_from": path.name},
                            **({"datasets": datasets} if datasets else {}),
                        },
                        f"service-recovery:{path.name}",
                    )
                except OSError as exc:
                    # Disk trouble mid-recovery (full disk, failing
                    # device): the journal stays on disk — its cells
                    # remain recoverable at the next startup — and the
                    # server boots anyway instead of crash-looping.
                    reports.append(
                        {
                            "journal": path.name,
                            "error": f"recovery write failed: {exc}",
                            "retained": True,
                        }
                    )
                    continue
                self._table.count("cells_recovered", len(completed))
                reports.append(
                    {
                        "journal": path.name,
                        "recovered_cells": len(completed),
                        "run_id": run_id,
                    }
                )
            else:
                reports.append({"journal": path.name, "recovered_cells": 0})
            path.unlink(missing_ok=True)
        return reports

    # -- watermarks / degraded mode --------------------------------------

    def resource_watermarks(self) -> dict[str, object]:
        """Current disk reading against the configured floor."""
        # The archive root is created lazily on first write; until then,
        # measure the nearest existing ancestor so a freshly started
        # server still sees disk pressure before it writes anything.
        probe = Path(self.archive.root).absolute()
        while not probe.exists() and probe.parent != probe:
            probe = probe.parent
        try:
            disk = shutil.disk_usage(probe)
            disk_free: int | None = disk.free
            disk_total: int | None = disk.total
        except OSError:
            disk_free = disk_total = None
        return {
            "disk_free_bytes": disk_free,
            "disk_total_bytes": disk_total,
            "min_free_bytes": self.min_free_bytes,
        }

    def degraded_reasons(self, marks: dict[str, object] | None = None) -> list[str]:
        """Why new misses are being refused right now (empty = healthy).

        Draining (graceful shutdown) and a watermark breach both put the
        service in hits-only read-only mode; the reasons are surfaced
        verbatim in ``degraded`` events and ``/health``.  ``marks`` is a
        :meth:`resource_watermarks` reading the caller already took.
        """
        reasons: list[str] = []
        if self._draining:
            reasons.append("draining: server is shutting down")
        free = (marks or self.resource_watermarks())["disk_free_bytes"]
        if free is not None and free < self.min_free_bytes:
            reasons.append(
                f"disk critically low: {free} bytes free at "
                f"{self.archive.root} (floor {self.min_free_bytes})"
            )
        return reasons

    # -- introspection / lifecycle --------------------------------------

    def _observe(self):
        """``/health`` and ``/status`` read once — one table snapshot, one
        watermark probe: ``(the keys both report, stats, hot cells,
        watermarks, last scrub report)``."""
        stats, inflight, cached, indexed = self._table.snapshot()
        marks = self.resource_watermarks()
        reasons = self.degraded_reasons(marks)
        last_scrub = last_scrub_report(self.archive.root)
        shared = {
            "degraded": bool(reasons),
            "degraded_reasons": reasons,
            "draining": self._draining,
            "queue_capacity": self._queue.maxsize,
            "inflight_cells": inflight,
            "indexed_cells": indexed,
            "quarantine_count": quarantine_count(self.archive.root),
            "last_scrub_verdict": last_scrub.get("verdict") if last_scrub else None,
        }
        return shared, stats, cached, marks, last_scrub

    def health(self) -> dict[str, object]:
        """Liveness + capacity payload for ``/health``.

        Everything an operator (or the soak harness) needs to judge the
        service at a glance: engine/pool liveness, queue depth against
        capacity, the disk watermark, degraded state, cells mapped to runs,
        quarantine count, and the last scrub verdict.
        """
        shared, stats, _, marks, last_scrub = self._observe()
        engine_alive = self._engine.is_alive()
        pool = self._pool
        return {
            "ok": engine_alive and not shared["degraded"],
            **shared,
            "engine_alive": engine_alive,
            "engine_restarts": stats["engine_restarts"],
            "queue_depth": self._queue.qsize(),
            "pool_alive": pool is not None and not pool.closed,
            "pool_jobs": self.jobs,
            "watermarks": marks,
            "runs_quarantined_while_serving": stats["runs_quarantined"],
            "graph_cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "corrupt": self.cache.corrupt,
                "corrupt_events": list(self.cache.corrupt_events[-10:]),
            },
            "last_scrub": last_scrub,
        }

    def status(self) -> dict[str, object]:
        """Introspection payload: stats, hit rate, queue/cache depths."""
        shared, stats, cached, _, _ = self._observe()
        requested = stats["cells_requested"]
        served = stats["cells_hit"] + stats["cells_coalesced"]
        return {
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "archive": str(self.archive.root),
            "hot_cache_cells": cached,
            "queued_jobs": self._queue.qsize(),
            "hit_rate": round(served / requested, 6) if requested else None,
            "recovery": self.recovery_report,
            **shared,
            **stats,
        }

    def drain(self, timeout: float = 300.0) -> None:
        """Graceful drain: refuse new misses, finish queued work, stop.

        New submissions still get their hits (and a structured
        ``degraded`` rejection for misses); every job already queued or
        in flight runs to completion — journaled, archived, fsynced —
        before the engine stops.  Idempotent, like shutdown.
        """
        self._draining = True
        self.shutdown(timeout=timeout)

    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop the engine and release the pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._engine.join(timeout=timeout)
        if self._pool is not None and not self._pool.closed:
            self._pool.shutdown()


# -- HTTP front end -----------------------------------------------------


#: The largest request body read; a campaign request is under 1 KB.
MAX_BODY_BYTES = 1 << 20

#: Status line and ``Server`` header of each status the server sends.
_STATUS_LINES = {
    status: b"HTTP/1.1 %d %s\r\nServer: repro-service\r\n"
    % (status, HTTPStatus(status).phrase.encode())
    for status in (200, 400, 404, 411, 413, 414, 431, 501, 503, 505)
}
_JSON_FIELDS = b"Content-Type: application/json\r\nContent-Length: %d\r\n"
_STREAM_FIELDS = b"Content-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n"
_CLOSE = b"Connection: close\r\n\r\n"
_REQUEST_LINE = re.compile(rb"(\S+) (\S+) HTTP/(\d)\.(\d)\r?\n")


class _Refusal(Exception):
    """A request answered with ``status`` and a JSON error, and its
    connection closed: nothing after it on the socket can be trusted."""

    def __init__(self, status: int, error: str) -> None:
        super().__init__(error)
        self.status = status


class _ServiceHandler(socketserver.StreamRequestHandler):
    """Routes: POST /submit (NDJSON stream), GET /status, GET /health,
    GET /healthz, POST /shutdown.

    One loop serves a connection, one request at a time: the request
    line and headers are read as lines under the limits both ends share
    (:func:`~repro.service.protocol.read_fields`), the body by its one
    ``Content-Length``, and the reply head is written from bytes built
    once per status.  HTTP/1.1 keeps the connection alive unless the
    request says ``Connection: close``; HTTP/1.0 closes after the reply;
    a refusal closes after its JSON error.  /submit streams via chunked
    transfer-encoding so clients see cells as they land.

    One write per group of ready events: ``wfile`` is buffered, and it is
    flushed only where the event stream is about to wait and after each
    request.  So a pure hit — head, ``accepted``, every cell, ``done``
    and the zero-length chunk — is one send, a JSON reply is one send,
    and a miss sends each group of cells the moment it lands.  A group
    larger than the buffer goes out in buffer-sized sends, one chunk per
    event as always.
    """

    # Nagle + delayed ACK turns each small write into a 40ms stall; a
    # streaming event protocol must send its segments immediately.
    disable_nagle_algorithm = True
    wbufsize = 64 * 1024
    #: The connection closes after the reply: set anew by each request.
    close_connection = False

    @property
    def service(self) -> BenchmarkService:
        return self.server.service  # type: ignore[attr-defined]

    def handle(self) -> None:
        try:
            while self._exchange():
                pass
        except ConnectionError:
            # The client went away, between requests or mid-reply (the
            # engine finishes its job anyway): an event to count, not a
            # traceback.  Anything else stays loud.
            self.service._table.count("connections_reset")
            # Drop what the dead socket did not take, or ``finish`` would
            # fail to flush it a second time, with a traceback.
            with contextlib.suppress(OSError):
                self.wfile.close()

    def _exchange(self) -> bool:
        """Read one request and answer it; whether the connection stays open."""
        try:
            method, path, body = self._read_request()
        except TornMessage:
            return False  # closed between requests, or part-way through one
        except _Refusal as refusal:
            self.close_connection = True
            self._send_json(refusal.status, {"error": str(refusal)})
        else:
            if method == b"GET":
                self._get(path)
            else:
                self._post(path, body)
        self.wfile.flush()
        return not self.close_connection

    def _read_request(self) -> tuple[bytes, bytes, bytes]:
        """``(method, path, body)`` of the next request, read to the end
        of its body, with :attr:`close_connection` set for its reply;
        raises :class:`_Refusal` on anything the service does not accept."""
        try:
            line = read_line(self.rfile, "request")
        except HeadTooLarge as exc:
            raise _Refusal(414, str(exc)) from None
        match = _REQUEST_LINE.fullmatch(line)
        if match is None:
            raise _Refusal(400, f"malformed request line {line.decode('latin-1')!r}")
        method, path, major, minor = match.groups()
        if major != b"1":
            raise _Refusal(505, f"HTTP/{major.decode()}.{minor.decode()} is not HTTP/1.x")
        if method not in (b"GET", b"POST"):
            raise _Refusal(501, f"unsupported method {method.decode('latin-1')!r}")
        lengths, chunked, expect = set(), False, False
        self.close_connection = minor == b"0"
        try:
            for name, value in read_fields(self.rfile, "request"):
                if name == b"content-length":
                    lengths.add(value)
                elif name == b"transfer-encoding":
                    chunked = True
                elif name == b"connection" and value.lower() == b"close":
                    self.close_connection = True
                elif name == b"expect":
                    expect = value.lower() == b"100-continue"
        except HeadTooLarge as exc:
            raise _Refusal(431, str(exc)) from None
        return method, path, self._read_body(lengths, chunked, expect)

    def _read_body(self, lengths: set[bytes], chunked: bool, expect: bool) -> bytes:
        """The request body, consumed exactly, or a refusal: a body left
        on a kept-alive socket would be parsed as the next request."""
        if chunked:
            raise _Refusal(411, "send a Content-Length, not a Transfer-Encoding")
        if len(lengths) > 1:
            # RFC 9112 section 6.3: which one delimits the body is unknowable.
            values = sorted(value.decode("latin-1") for value in lengths)
            raise _Refusal(400, f"conflicting Content-Length values {values}")
        declared = lengths.pop() if lengths else b"0"
        if not declared.isdigit():
            raise _Refusal(400, f"bad Content-Length {declared.decode('latin-1')!r}")
        # int() refuses a string of over 4300 digits: count them first.
        if len(declared) > 16 or int(declared) > MAX_BODY_BYTES:
            raise _Refusal(413, f"a body over the {MAX_BODY_BYTES}-byte limit")
        length = int(declared)
        if expect:
            # The interim reply must leave before the body is waited for.
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            self.wfile.flush()
        body = self.rfile.read(length)
        if len(body) != length:
            raise _Refusal(400, f"body ended after {len(body)} of {length} bytes")
        return body

    def _head(self, status: int, fields: bytes) -> None:
        self.wfile.write(
            _STATUS_LINES[status]
            + self.server.date_line()  # type: ignore[attr-defined]
            + fields
            + (_CLOSE if self.close_connection else b"\r\n")
        )

    def _send_json(self, status: int, payload: dict[str, object]) -> None:
        body = json.dumps(payload, default=str).encode() + b"\n"
        self._head(status, _JSON_FIELDS % len(body))
        self.wfile.write(body)

    def _not_found(self, path: bytes) -> None:
        self._send_json(404, {"error": f"unknown path {path.decode('latin-1')}"})

    def _get(self, path: bytes) -> None:
        if path == b"/healthz":
            self._send_json(200, {"ok": True})
        elif path == b"/health":
            payload = self.service.health()
            self._send_json(200 if payload["ok"] else 503, payload)
        elif path == b"/status":
            self._send_json(200, self.service.status())
        else:
            self._not_found(path)

    def _post(self, path: bytes, body: bytes) -> None:
        if path == b"/shutdown":
            self._send_json(200, {"ok": True, "shutting_down": True})
            threading.Thread(target=self.server.shutdown, daemon=True).start()
            return
        if path != b"/submit":
            self._not_found(path)
            return
        try:
            events = self.service.submit_body(body)
        except (ServiceError, ValueError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        self._head(200, _STREAM_FIELDS)
        for line in events:
            if line:
                self.wfile.write(b"%X\r\n%s\r\n" % (len(line), line))
            else:
                self.wfile.flush()  # the stream waits: send what is ready
        self.wfile.write(b"0\r\n\r\n")


class ServiceHTTPServer(socketserver.ThreadingTCPServer):
    """Threaded HTTP/1.1 server bound to one :class:`BenchmarkService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: BenchmarkService) -> None:
        super().__init__(address, _ServiceHandler)
        self.service = service
        self._date = (0, b"")

    def date_line(self) -> bytes:
        """The ``Date`` header line, formatted at most once a second."""
        now = int(time.time())
        second, line = self._date
        if second != now:
            # Python leaves LC_TIME at "C": %a and %b are HTTP's English names.
            stamp = time.strftime("%a, %d %b %Y %H:%M:%S GMT", time.gmtime(now))
            line = b"Date: %s\r\n" % stamp.encode()
            self._date = (now, line)
        return line


def serve_forever(
    service: BenchmarkService,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Callable[[str, int], None] | None = None,
) -> None:
    """Serve until /shutdown, SIGTERM, or KeyboardInterrupt; blocks.

    ``port=0`` binds an ephemeral port; ``ready`` receives the actual
    (host, port) before serving starts (the CLI prints it).

    SIGTERM triggers a *graceful drain*: in-flight and queued jobs run
    to completion (journaled, archived, fsynced), new misses get
    structured ``degraded`` rejections meanwhile, and the process exits
    0 — the contract supervisors (systemd, k8s) expect from a well-
    behaved service.  The drain runs on a helper thread because the
    signal arrives on the thread blocked in ``serve_forever()``.
    """
    server = ServiceHTTPServer((host, port), service)

    def _drain_and_stop() -> None:
        service.drain()
        server.shutdown()

    try:
        signal.signal(
            signal.SIGTERM,
            lambda signum, frame: threading.Thread(
                target=_drain_and_stop, name="sigterm-drain", daemon=True
            ).start(),
        )
    except ValueError:
        pass  # not the main thread (embedded use); no signal hook
    try:
        if ready is not None:
            ready(*server.server_address[:2])
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.shutdown()
