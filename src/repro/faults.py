"""Deterministic fault injection: one plan for compute and storage faults.

Chaos testing with *timing* (sleep here, hope the race happens there)
produces flaky tests.  This module injects faults at exact, named points
instead.  A :class:`Fault` says *what happens*, *where* and *on which
occurrence*, so a test can demand "the worker running gap/cc crashes on
attempt 0 and only attempt 0" or "the third write to the cell index
tears" and get exactly that, every run.

Ten kinds (:data:`KINDS`), each firing at one of two sites:

* **cell** — inside the runner's trial deadline scope, before the timed
  region starts (:func:`fire`), and on the verification trial's output
  (:func:`transform_output`):

  - ``crash`` — the executing process exits (``os._exit``) with
    :data:`CRASH_EXIT_CODE`: a segfault or OOM-kill in a worker, a
    genuinely interrupted campaign when serial;
  - ``hang`` — an interruptible sleep loop the trial deadline converts
    into a ``timeout``;
  - ``hang-hard`` — ignores ``SIGALRM`` and spins; only the process
    backend's hard kill ends it;
  - ``oom`` — raises :class:`MemoryError` (classified *transient*);
  - ``error`` — raises :class:`ValueError` (classified *deterministic*);
  - ``wrong-result`` — perturbs the kernel output so verification fails.

* **storage** — in the I/O shim :mod:`repro.durable` does all its I/O
  through (:func:`shim_write` / :func:`shim_fsync` /
  :func:`shim_replace`, keyed on the *destination* path):

  - ``enospc`` — the write or rename raises ``OSError(ENOSPC)`` with
    nothing written: the classic full disk;
  - ``torn-write`` — a strict prefix of the buffer lands, then
    ``OSError(EIO)``: what a crash or a lost power rail leaves behind;
  - ``fsync-fail`` — the data is in the page cache but ``fsync`` raises
    ``OSError(EIO)``: the caller must not claim the record is safe;
  - ``bit-flip`` — one byte is corrupted and the write **succeeds
    silently**: the fault checksums exist to catch.

A cell fault filters on ``framework`` / ``kernel`` / ``graph`` / ``mode``
(exact match), a storage fault on ``path`` (substring) and
``operation`` (``write`` / ``fsync`` / ``replace``); ``None`` matches
anything, and a filter from the other family is refused.  A fault fires
on occurrences ``first`` to ``first + times - 1`` — ``times=None`` is
every occurrence from ``first`` on, and the default ``times=1`` fires
once, so a forgotten bound cannot wedge a server.  A cell's occurrence
is its attempt number; a storage call's is the count of earlier calls
that fault matched in this process.

A plan comes from one of two places.  ``REPRO_FAULTS`` holds its JSON
form (:func:`parse_plan`), parsed once per distinct text; that is how
the CLI tests and the chaos soak reach a whole subprocess.  In code,
:func:`installed` makes a plan the *whole* plan for a block — it
suspends the environment's plan, and its match counters and
:func:`fired` record are its own.  ``WorkerPool.begin_campaign`` sends
the parent's active plan to its workers with the campaign message, so a
plan reaches them under ``fork`` and ``spawn`` alike.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

__all__ = [
    "CRASH_EXIT_CODE",
    "Fault",
    "KINDS",
    "active_plan",
    "fire",
    "fired",
    "installed",
    "parse_plan",
    "shim_fsync",
    "shim_replace",
    "shim_write",
    "transform_output",
]

#: Environment variable carrying a JSON fault plan (see :func:`parse_plan`).
_ENV = "REPRO_FAULTS"

#: Exit status used by the ``crash`` fault, distinctive enough to assert on.
CRASH_EXIT_CODE = 86

#: Fault kind -> the site it fires at.
KINDS = {
    "crash": "cell",
    "hang": "cell",
    "hang-hard": "cell",
    "oom": "cell",
    "error": "cell",
    "wrong-result": "cell",
    "enospc": "storage",
    "torn-write": "storage",
    "fsync-fail": "storage",
    "bit-flip": "storage",
}

_FILTERS = {
    "cell": ("framework", "kernel", "graph", "mode"),
    "storage": ("path", "operation"),
}

#: The shim operations each storage kind can fire on.
_OPERATIONS = {
    "enospc": ("write", "replace"),
    "torn-write": ("write",),
    "fsync-fail": ("fsync",),
    "bit-flip": ("write",),
}

#: The cell kinds :func:`fire` acts on (``wrong-result`` acts on output).
_RAISING = ("crash", "hang", "hang-hard", "oom", "error")


@dataclass(frozen=True)
class Fault:
    """One injected fault: what happens, where, and on which occurrences."""

    kind: str
    framework: str | None = None
    kernel: str | None = None
    graph: str | None = None
    mode: str | None = None
    path: str | None = None
    operation: str | None = None
    first: int = 0
    times: int | None = 1

    def __post_init__(self) -> None:
        site = KINDS.get(self.kind)
        if site is None:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {tuple(KINDS)}"
            )
        other = _FILTERS["storage" if site == "cell" else "cell"]
        foreign = [name for name in other if getattr(self, name) is not None]
        if foreign:
            raise ValueError(
                f"{self.kind!r} is a {site} fault; it cannot filter on "
                f"{', '.join(foreign)}"
            )
        if self.operation is not None and self.operation not in _OPERATIONS[self.kind]:
            raise ValueError(
                f"{self.kind!r} cannot fire on operation {self.operation!r}; "
                f"expected one of {_OPERATIONS[self.kind]}"
            )
        if not isinstance(self.first, int) or self.first < 0:
            raise ValueError(f"first must be an int >= 0, got {self.first!r}")
        if self.times is not None and (not isinstance(self.times, int) or self.times < 1):
            raise ValueError(f"times must be an int >= 1 or None, got {self.times!r}")

    def _due(self, occurrence: int) -> bool:
        return occurrence >= self.first and (
            self.times is None or occurrence < self.first + self.times
        )

    def as_dict(self) -> dict[str, object]:
        """The :func:`parse_plan` entry form, omitting default fields."""
        out: dict[str, object] = {"kind": self.kind}
        for field in fields(self)[1:]:
            value = getattr(self, field.name)
            if value != field.default:
                out[field.name] = value
        return out


_FIELDS = frozenset(field.name for field in fields(Fault))


def parse_plan(text: str) -> tuple[Fault, ...]:
    """Parse the JSON plan form: a list of :class:`Fault` objects.

    Example, a cell fault and a storage fault in one plan::

        [{"kind": "crash", "kernel": "cc"},
         {"kind": "torn-write", "path": "cell_index", "first": 2}]
    """
    raw = json.loads(text)
    if not isinstance(raw, list):
        raise ValueError("fault plan must be a JSON list of fault objects")
    plan = []
    for item in raw:
        if not isinstance(item, dict) or "kind" not in item:
            raise ValueError(f"fault entry {item!r} needs at least a 'kind'")
        unknown = sorted(set(item) - _FIELDS)
        if unknown:
            raise ValueError(f"fault entry {item!r} has unknown keys {unknown}")
        plan.append(Fault(**item))
    return tuple(plan)


# -- the plan in force --------------------------------------------------------


class _Plan:
    """A plan as it runs: its faults, their storage match counts, what fired."""

    def __init__(self, faults) -> None:
        self.faults: tuple[Fault, ...] = tuple(faults)
        self.seen = [0] * len(self.faults)
        self.fired: list[dict[str, object]] = []


#: Guards storage match counts and the environment plan's cache.  Cell
#: faults take no lock: a worker forked while another thread held it
#: must still be able to fire one.
_lock = threading.Lock()
_installed: _Plan | None = None
_env: tuple[str, _Plan] | None = None


def _active() -> _Plan | None:
    """The installed plan, else the environment's (parsed once per text)."""
    global _env
    if _installed is not None:
        return _installed
    text = os.environ.get(_ENV)
    if not text:
        return None
    with _lock:
        if _env is None or _env[0] != text:
            _env = (text, _Plan(parse_plan(text)))
        return _env[1]


def active_plan() -> tuple[Fault, ...]:
    """The faults in force in this process (what workers are sent)."""
    plan = _active()
    return plan.faults if plan is not None else ()


@contextmanager
def installed(*faults: Fault):
    """Make ``faults`` the whole plan until the block exits::

        with installed(Fault("torn-write", path="journal")):
            ...

    The environment's plan is suspended meanwhile, and the plan in force
    before the block — counters and record included — is back after it.
    """
    global _installed
    previous, _installed = _installed, _Plan(faults)
    try:
        yield
    finally:
        _installed = previous


def fired() -> list[dict[str, object]]:
    """Every firing of the active plan in this process (assertion aid)."""
    plan = _active()
    if plan is None:
        return []
    with _lock:
        return [dict(record) for record in plan.fired]


# -- cell site ----------------------------------------------------------------


def _due_cell(
    kinds: tuple[str, ...], framework: str, kernel: str, graph: str, mode: str,
    attempt: int,
) -> Fault | None:
    plan = _active()
    if plan is None:
        return None
    for fault in plan.faults:
        if (
            fault.kind in kinds
            and fault._due(attempt)
            and fault.framework in (None, framework)
            and fault.kernel in (None, kernel)
            and fault.graph in (None, graph)
            and fault.mode in (None, mode)
        ):
            plan.fired.append({
                "kind": fault.kind, "framework": framework, "kernel": kernel,
                "graph": graph, "mode": mode, "attempt": attempt,
            })
            return fault
    return None


def fire(framework: str, kernel: str, graph: str, mode: str, attempt: int) -> None:
    """Trigger a due in-trial fault (crash / hang / hang-hard / oom / error).

    Called by the runner inside the trial's deadline scope, so ``hang`` is
    interruptible exactly like a real slow kernel would be.
    """
    fault = _due_cell(_RAISING, framework, kernel, graph, mode, attempt)
    if fault is None:
        return
    where = f"{framework}/{kernel}/{graph}/{mode} attempt {attempt}"
    if fault.kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if fault.kind == "oom":
        raise MemoryError(f"injected fault: oom at {where}")
    if fault.kind == "error":
        raise ValueError(f"injected fault: deterministic error at {where}")
    if fault.kind == "hang-hard" and hasattr(signal, "SIGALRM"):
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
    while True:
        time.sleep(0.05)


def transform_output(
    framework: str, kernel: str, graph: str, mode: str, attempt: int, output
):
    """Apply a due ``wrong-result`` fault to a kernel output.

    The perturbation is minimal but always verification-visible: numeric
    arrays get their first element bumped, scalar outputs (TC's count)
    are off by one.
    """
    if _due_cell(("wrong-result",), framework, kernel, graph, mode, attempt) is None:
        return output
    if isinstance(output, np.ndarray) and output.size:
        corrupted = output.copy()
        corrupted[0] = corrupted.flat[0] + 1
        return corrupted
    if isinstance(output, (int, float, np.integer, np.floating)):
        return type(output)(output + 1)
    return output


# -- storage site: the shim ---------------------------------------------------


def _due_storage(operation: str, path: str) -> Fault | None:
    """The first fault due for this call, advancing every match count."""
    plan = _active()
    if plan is None:
        return None
    with _lock:
        due: Fault | None = None
        for slot, fault in enumerate(plan.faults):
            if (
                operation not in _OPERATIONS.get(fault.kind, ())
                or fault.operation not in (None, operation)
                or (fault.path is not None and fault.path not in path)
            ):
                continue
            seen = plan.seen[slot]
            plan.seen[slot] = seen + 1
            if due is None and fault._due(seen):
                due = fault
        if due is not None:
            plan.fired.append({"kind": due.kind, "operation": operation, "path": path})
        return due


def shim_write(stream, data: bytes, path: str | Path) -> None:
    """Write ``data`` to an open binary stream, subject to the fault plan.

    ``enospc`` writes nothing and raises; ``torn-write`` writes a strict
    prefix then raises; ``bit-flip`` silently corrupts one byte and
    succeeds.
    """
    fault = _due_storage("write", str(path))
    if fault is None:
        stream.write(data)
        return
    if fault.kind == "enospc":
        raise OSError(
            errno.ENOSPC, f"injected fault: no space left on device: {path}"
        )
    if fault.kind == "torn-write":
        # A strict prefix: at least one byte short, at least one byte
        # written when there is anything to write — the half-record a
        # dying process leaves behind.
        torn = max(1, len(data) // 2) if len(data) > 1 else 0
        stream.write(data[:torn])
        stream.flush()
        raise OSError(
            errno.EIO, f"injected fault: torn write ({torn}/{len(data)} "
            f"bytes) to {path}"
        )
    if data:  # bit-flip
        corrupted = bytearray(data)
        corrupted[len(corrupted) // 2] ^= 0x20
        data = bytes(corrupted)
    stream.write(data)


def shim_fsync(stream, path: str | Path) -> None:
    """``flush`` + ``os.fsync`` the stream, subject to the fault plan."""
    stream.flush()
    if _due_storage("fsync", str(path)) is not None:  # fsync-fail
        raise OSError(errno.EIO, f"injected fault: fsync failed for {path}")
    os.fsync(stream.fileno())


def shim_replace(src: str | Path, dst: str | Path) -> None:
    """``os.replace``, subject to the fault plan (keyed on the *target*).

    ``enospc`` here models a rename failing on a full disk's metadata
    update: the destination is untouched and the staged source remains.
    """
    if _due_storage("replace", str(dst)) is not None:  # enospc
        raise OSError(
            errno.ENOSPC, f"injected fault: no space left on device: {dst}"
        )
    os.replace(src, dst)
