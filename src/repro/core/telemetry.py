"""Span-based telemetry for the benchmark runner.

The paper's contribution is *consistent, comparable measurements* across
frameworks, and both the GAP suite rules and Pollard & Norris's comparison
methodology ask for per-trial reporting: a cross-framework table is only
trustworthy when the variance and the failures behind each averaged cell
are recorded.  This module provides that substrate:

* :class:`Span` — one traced region (a benchmark cell, a prepare phase, a
  trial) with wall time, an outcome status (``ok`` / ``error`` /
  ``timeout`` / ``skipped``), structured error capture, a work-counter
  snapshot, and optional peak-memory figure.
* :class:`Telemetry` — the collector.  Spans nest; every completed
  top-level span is kept in memory for summarization and streamed as one
  JSON line to an optional :class:`JsonlSink`.
* :class:`TrialDeadline` — a per-trial wall-clock budget.  On the main
  thread it arms ``SIGALRM`` so a hung kernel is interrupted mid-flight;
  off the main thread (or without signals) it degrades to a monotonic
  post-hoc check that still converts an over-budget trial into a
  :class:`~repro.errors.TrialTimeoutError`.

The runner keeps its timed region free of telemetry work: per-trial
records are materialized *after* the trial loop from the measurements the
runner already takes, so tracing does not perturb what it measures (see
``benchmarks/bench_telemetry_overhead.py`` for the enforced bound).

See ``docs/TELEMETRY.md`` for the JSONL schema and how to read traces.
"""

from __future__ import annotations

import json
import signal
import threading
import time
import traceback as traceback_mod
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable

from ..errors import TrialTimeoutError

__all__ = [
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_SKIPPED",
    "STATUS_TIMEOUT",
    "JsonlSink",
    "Span",
    "Telemetry",
    "TrialDeadline",
    "quantile",
    "read_trace",
]

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
STATUS_SKIPPED = "skipped"


def quantile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation quantile of a sample (NaN for an empty one)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


@dataclass
class Span:
    """One traced region.

    ``trials`` holds the lightweight per-trial records of a benchmark
    cell (dicts with ``trial``/``status``/``wall_seconds``/``source``);
    ``children`` holds nested phase spans (``prepare``, ``verify``).
    A failed span carries a structured ``error`` with the exception type,
    message, and traceback, plus the phase/trial it was in (in
    ``attributes``).
    """

    name: str
    attributes: dict[str, object] = field(default_factory=dict)
    status: str = STATUS_OK
    wall_seconds: float = 0.0
    children: list["Span"] = field(default_factory=list)
    trials: list[dict[str, object]] = field(default_factory=list)
    counters: dict[str, object] | None = None
    peak_mem_bytes: int | None = None
    error: dict[str, str] | None = None
    warnings: list[dict[str, object]] = field(default_factory=list)

    def fail(self, exc: BaseException, status: str | None = None) -> None:
        """Mark this span failed, capturing the exception structurally."""
        self.status = status or (
            STATUS_TIMEOUT if isinstance(exc, TrialTimeoutError) else STATUS_ERROR
        )
        self.error = {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": "".join(
                traceback_mod.format_exception(type(exc), exc, exc.__traceback__)
            ),
        }

    def child(self, name: str) -> "Span | None":
        """First direct child span with the given name, or None."""
        for span in self.children:
            if span.name == name:
                return span
        return None

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable form (one JSONL record for top-level spans)."""
        record: dict[str, object] = {
            "span": self.name,
            "status": self.status,
            "wall_seconds": self.wall_seconds,
        }
        record.update(self.attributes)
        if self.trials:
            record["trials"] = self.trials
        if self.counters is not None:
            record["counters"] = self.counters
        if self.peak_mem_bytes is not None:
            record["peak_mem_bytes"] = self.peak_mem_bytes
        if self.error is not None:
            record["error"] = self.error
        if self.warnings:
            record["warnings"] = self.warnings
        if self.children:
            record["children"] = [span.as_dict() for span in self.children]
        return record

    @classmethod
    def from_dict(cls, record: dict[str, object]) -> "Span":
        """Rebuild a span from its :meth:`as_dict` form.

        The inverse used when merging spans streamed out of worker
        processes; unknown keys are treated as attributes, matching how
        ``as_dict`` flattens them.
        """
        reserved = {
            "span",
            "status",
            "wall_seconds",
            "trials",
            "counters",
            "peak_mem_bytes",
            "error",
            "warnings",
            "children",
        }
        return cls(
            name=str(record.get("span", "span")),
            attributes={k: v for k, v in record.items() if k not in reserved},
            status=str(record.get("status", STATUS_OK)),
            wall_seconds=float(record.get("wall_seconds", 0.0)),
            children=[cls.from_dict(child) for child in record.get("children", [])],
            trials=list(record.get("trials", [])),
            counters=record.get("counters"),
            peak_mem_bytes=record.get("peak_mem_bytes"),
            error=record.get("error"),
            warnings=list(record.get("warnings", [])),
        )


class JsonlSink:
    """Append-only JSONL writer over a path or an open text stream.

    Crash-safe by flushing after every record: a campaign killed mid-run
    leaves a ``--trace`` file complete up to the last finished span
    instead of losing a buffered tail (the same durability contract as
    the checkpoint journal, minus the fsync — a trace is diagnostic, not
    the source of truth for resume).
    """

    def __init__(self, target: str | Path | IO[str]) -> None:
        if isinstance(target, (str, Path)):
            self._stream: IO[str] = open(target, "a", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False

    def write(self, record: dict[str, object]) -> None:
        """Write one record as a single JSON line, flushed immediately."""
        self._stream.write(json.dumps(record, default=str) + "\n")
        self._stream.flush()

    def close(self) -> None:
        """Flush, and close the stream if this sink opened it."""
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()


def read_trace(path: str | Path) -> list[dict[str, object]]:
    """Parse a JSONL trace file back into record dicts."""
    records = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


class _SpanHandle:
    """Context manager for one span: times it and routes it on exit."""

    __slots__ = ("_telemetry", "span", "_start")

    def __init__(self, telemetry: "Telemetry", span: Span) -> None:
        self._telemetry = telemetry
        self.span = span

    def __enter__(self) -> Span:
        self._telemetry._stack.append(self.span)
        self._start = time.perf_counter()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self.span
        span.wall_seconds = time.perf_counter() - self._start
        if exc is not None and span.status == STATUS_OK:
            span.fail(exc)
        stack = self._telemetry._stack
        stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            self._telemetry._finish(span)
        return False


class Telemetry:
    """Collects spans; streams completed top-level spans to a JSONL sink.

    With no sink, spans are only kept in memory (``.spans``), which is the
    default for programmatic use and keeps the tracing layer cheap enough
    to leave permanently enabled.  ``track_memory`` additionally measures
    peak heap allocation of each cell's first trial via ``tracemalloc``
    (this slows allocation-heavy kernels, so it is opt-in and the measured
    trial's timing should be read with that in mind).
    """

    def __init__(
        self,
        sink: JsonlSink | str | Path | IO[str] | None = None,
        track_memory: bool = False,
    ) -> None:
        if sink is not None and not isinstance(sink, JsonlSink):
            sink = JsonlSink(sink)
        self.sink: JsonlSink | None = sink
        self.track_memory = track_memory
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attributes: object) -> _SpanHandle:
        """Open a (nested) span around a ``with`` block."""
        return _SpanHandle(self, Span(name=name, attributes=dict(attributes)))

    def current(self) -> Span | None:
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def ingest(self, span: Span) -> None:
        """Record a span that completed elsewhere (e.g. a worker process).

        The campaign loop merges worker spans here (a process worker's
        are rebuilt with :meth:`Span.from_dict` first), so one collector — and
        one JSONL sink — holds the whole campaign regardless of how many
        processes measured it.
        """
        self._finish(span)

    def _finish(self, span: Span) -> None:
        self.spans.append(span)
        if self.sink is not None:
            self.sink.write(span.as_dict())

    def records(self) -> list[dict[str, object]]:
        """All completed top-level spans in their JSONL-record form.

        This is what the results archive persists as a run's
        ``spans.jsonl`` (see :mod:`repro.store.archive`): the same records
        a sink would have streamed, available after the fact whether or
        not a sink was attached.
        """
        return [span.as_dict() for span in self.spans]

    def summary(self) -> dict[str, object]:
        """Aggregate view of all completed top-level spans.

        Returns status counts, the failure table (one row per non-ok
        span), and p50/p95 of span wall times — the numbers the report's
        telemetry sections are built from.
        """
        counts: dict[str, int] = {}
        failures: list[dict[str, object]] = []
        walls: list[float] = []
        for span in self.spans:
            counts[span.status] = counts.get(span.status, 0) + 1
            walls.append(span.wall_seconds)
            if span.status != STATUS_OK:
                row: dict[str, object] = {"span": span.name, "status": span.status}
                row.update(span.attributes)
                if span.error is not None:
                    row["error"] = f"{span.error['type']}: {span.error['message']}"
                failures.append(row)
        return {
            "spans": len(self.spans),
            "by_status": counts,
            "failures": failures,
            "p50_seconds": quantile(walls, 0.50),
            "p95_seconds": quantile(walls, 0.95),
        }

    def close(self) -> None:
        """Close the sink (a sink-less collector needs no cleanup)."""
        if self.sink is not None:
            self.sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class TrialDeadline:
    """Per-trial wall-clock budget; reusable across trials.

    ``seconds=None`` (or <= 0) disables the deadline and makes the context
    manager nearly free.  On the main thread of the main interpreter the
    deadline arms ``SIGALRM``/``setitimer`` so a hung kernel raises
    :class:`TrialTimeoutError` *inside* the kernel; elsewhere Python
    forbids signal handlers, so the budget degrades to a monotonic check
    after the block — the trial is not interrupted, but it is still
    recorded as a timeout rather than a measurement.

    Even with the signal armed, CPython only delivers it between
    bytecodes: a trial stuck inside one long C call (a big NumPy
    operation) runs to completion and the raise lands at the *next*
    Python instruction.  An in-process deadline is therefore soft by
    construction; ``last_overrun`` records, for the most recent
    over-budget block, whether the trial was actually interrupted near
    its budget or overran uninterrupted (and by how much), so the runner
    can attach a structured warning to the cell span.  A *hard* guarantee
    requires process isolation — the process backend
    (:mod:`repro.core.campaign`) kills over-budget workers outright.
    """

    #: Overrun classification: a signal-armed trial that ended within
    #: ``budget * (1 + fraction) + slop`` counts as interrupted in-flight.
    _INTERRUPT_SLOP_FRACTION = 0.25
    _INTERRUPT_SLOP_SECONDS = 0.05

    def __init__(self, seconds: float | None) -> None:
        self.seconds = None if seconds is None or seconds <= 0 else float(seconds)
        self._use_signal = False
        self._start = 0.0
        self._previous_handler: object = None
        #: Structured record of the most recent over-budget block, or None.
        self.last_overrun: dict[str, object] | None = None

    def _expire(self, signum, frame) -> None:
        raise TrialTimeoutError(
            f"trial exceeded its {self.seconds:.6g}s deadline"
        )

    def __enter__(self) -> "TrialDeadline":
        if self.seconds is None:
            return self
        self.last_overrun = None
        self._start = time.monotonic()
        self._use_signal = hasattr(signal, "SIGALRM") and (
            threading.current_thread() is threading.main_thread()
        )
        if self._use_signal:
            self._previous_handler = signal.signal(signal.SIGALRM, self._expire)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.seconds is None:
            return False
        elapsed = time.monotonic() - self._start
        if self._use_signal:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)
        if elapsed > self.seconds:
            interrupted = (
                self._use_signal
                and exc_type is not None
                and issubclass(exc_type, TrialTimeoutError)
                and elapsed
                <= self.seconds * (1.0 + self._INTERRUPT_SLOP_FRACTION)
                + self._INTERRUPT_SLOP_SECONDS
            )
            self.last_overrun = {
                "budget_seconds": self.seconds,
                "elapsed_seconds": elapsed,
                "interrupted": interrupted,
                "mechanism": "signal" if self._use_signal else "posthoc",
            }
        if exc_type is None and elapsed > self.seconds:
            raise TrialTimeoutError(
                f"trial exceeded its {self.seconds:.6g}s deadline "
                "(detected post-hoc: signal interruption unavailable)"
            )
        return False
