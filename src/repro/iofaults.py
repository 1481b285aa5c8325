"""Deterministic I/O fault injection for the durable-storage tier.

:mod:`repro.resilience.faults` injects *compute* faults (crash, hang,
OOM, wrong-result) at exact cells; this module does the same for the
failures *disks* produce — the ones that corrupt archives instead of
campaigns.  Every persistent write goes through :mod:`repro.durable`
(results files, archive runs and indexes, graph-cache artifacts, the
checkpoint journal, the cell index), which does its I/O only through
the shim below — :func:`shim_write` / :func:`shim_fsync` /
:func:`shim_replace` — so a fault plan can make any *specific* one of
those operations fail, deterministically, at an exact coordinate:

* ``enospc`` — the write (or rename) raises ``OSError(ENOSPC)`` with
  nothing written: the classic full disk.
* ``torn-write`` — a *prefix* of the buffer reaches the file, then the
  write raises ``OSError(EIO)``: the payload a crash or a lost power rail
  leaves behind.  This is what torn-tail recovery paths must survive.
* ``fsync-fail`` — the data is in the page cache but ``fsync`` raises
  ``OSError(EIO)``: durability was *reported* impossible, so the caller
  must not claim the record is safe.
* ``bit-flip`` — one byte of the buffer is corrupted and the write
  **succeeds silently**: the fault checksums exist to catch.  Nothing
  fails at write time; only a verifying reader (scrub, crc-checked
  replay) can notice.

A fault fires at an exact ``(path substring, operation, count)``
coordinate: the ``count``-th matching call (0-based, counted per fault
entry in this process) triggers it; with ``repeat=True`` every matching
call from ``count`` on fires — a disk that stays full, not one that
hiccups.  Matching is pure and counters are process-local, so a plan is
deterministic for a given sequence of storage operations.

Plans are installed two ways, merged by :func:`active_io_plan`:

* programmatically via :func:`install_io_plan` or the :func:`io_faults`
  context manager (what unit tests use);
* externally via the ``REPRO_IO_FAULTS`` environment variable holding
  the JSON form (see :func:`parse_io_plan`) — this is how the chaos soak
  harness injects storage faults into a *server subprocess* without any
  API access, exactly like ``REPRO_FAULTS`` does for compute faults.

Every fired fault is recorded (:func:`fired_io_faults`) so tests and the
soak harness can assert that the coordinates they aimed at were actually
hit — a chaos run that injected nothing proves nothing.
"""

from __future__ import annotations

import errno
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "IO_FAULT_KINDS",
    "IO_FAULTS_ENV",
    "IOFaultSpec",
    "active_io_plan",
    "clear_io_plan",
    "fired_io_faults",
    "install_io_plan",
    "io_faults",
    "parse_io_plan",
    "shim_fsync",
    "shim_replace",
    "shim_write",
]

#: Environment variable carrying a JSON I/O fault plan.
IO_FAULTS_ENV = "REPRO_IO_FAULTS"

IO_FAULT_KINDS = ("enospc", "torn-write", "fsync-fail", "bit-flip")

#: Operations the shim exposes; a spec's ``operation`` must be one of
#: these (or None = any operation its kind applies to).
IO_OPERATIONS = ("write", "fsync", "replace")

#: Which operations each fault kind can fire on.
_KIND_OPERATIONS = {
    "enospc": ("write", "replace"),
    "torn-write": ("write",),
    "fsync-fail": ("fsync",),
    "bit-flip": ("write",),
}


@dataclass(frozen=True)
class IOFaultSpec:
    """One injected storage fault: where it fires and what it does.

    ``path`` is a substring match against the target path (``None``
    matches any path); ``operation`` restricts the shim call
    (``write`` / ``fsync`` / ``replace``; ``None`` = every operation the
    kind applies to).  ``count`` is the 0-based index of the matching
    call that fires; ``repeat=True`` keeps firing from that call on.
    """

    kind: str
    path: str | None = None
    operation: str | None = None
    count: int = 0
    repeat: bool = False

    def __post_init__(self) -> None:
        if self.kind not in IO_FAULT_KINDS:
            raise ValueError(
                f"unknown I/O fault kind {self.kind!r}; "
                f"expected one of {IO_FAULT_KINDS}"
            )
        if self.operation is not None and self.operation not in IO_OPERATIONS:
            raise ValueError(
                f"unknown I/O operation {self.operation!r}; "
                f"expected one of {IO_OPERATIONS}"
            )
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")

    def applies_to(self, operation: str, path: str) -> bool:
        """True when this fault *could* fire for the call (count aside)."""
        if operation not in _KIND_OPERATIONS[self.kind]:
            return False
        if self.operation is not None and self.operation != operation:
            return False
        return self.path is None or self.path in path

    def as_dict(self) -> dict[str, object]:
        """Minimal JSON form; ``parse_io_plan`` round-trips it."""
        out: dict[str, object] = {"kind": self.kind}
        if self.path is not None:
            out["path"] = self.path
        if self.operation is not None:
            out["operation"] = self.operation
        if self.count:
            out["count"] = self.count
        if self.repeat:
            out["repeat"] = True
        return out


def parse_io_plan(text: str) -> tuple[IOFaultSpec, ...]:
    """Parse the JSON plan form: a list of IOFaultSpec dicts.

    Example::

        [{"kind": "torn-write", "path": "cell_index.jsonl", "count": 3},
         {"kind": "enospc", "path": "runs/", "repeat": true}]
    """
    raw = json.loads(text)
    if not isinstance(raw, list):
        raise ValueError("I/O fault plan must be a JSON list of fault objects")
    faults = []
    for item in raw:
        if not isinstance(item, dict) or "kind" not in item:
            raise ValueError(f"I/O fault entry {item!r} needs at least a 'kind'")
        faults.append(
            IOFaultSpec(
                kind=str(item["kind"]),
                path=item.get("path"),
                operation=item.get("operation"),
                count=int(item.get("count", 0)),
                repeat=bool(item.get("repeat", False)),
            )
        )
    return tuple(faults)


# -- process-wide plan state --------------------------------------------

_lock = threading.Lock()
_installed: tuple[IOFaultSpec, ...] = ()
#: Per-fault counters of *matching* calls seen, keyed by the fault's
#: position in the active plan (specs are frozen/hashable but may repeat).
_counters: dict[int, int] = {}
_fired: list[dict[str, object]] = []
#: Cache of the parsed env plan, invalidated when the raw text changes.
_env_cache: tuple[str, tuple[IOFaultSpec, ...]] | None = None


def install_io_plan(plan: tuple[IOFaultSpec, ...] | list[IOFaultSpec]) -> None:
    """Install a process-wide plan (replacing any previous one)."""
    global _installed
    with _lock:
        _installed = tuple(plan)
        _counters.clear()
        _fired.clear()


def clear_io_plan() -> None:
    """Remove the installed plan and reset counters/fired records."""
    install_io_plan(())


def active_io_plan() -> tuple[IOFaultSpec, ...]:
    """The effective plan: installed specs plus ``$REPRO_IO_FAULTS``.

    Worker and server subprocesses inherit the environment, so an
    env-injected plan reaches them without any protocol change.
    """
    global _env_cache
    text = os.environ.get(IO_FAULTS_ENV)
    env_plan: tuple[IOFaultSpec, ...] = ()
    if text:
        if _env_cache is None or _env_cache[0] != text:
            _env_cache = (text, parse_io_plan(text))
        env_plan = _env_cache[1]
    return _installed + env_plan


def fired_io_faults() -> list[dict[str, object]]:
    """Snapshot of every fault fired in this process (assertion aid)."""
    with _lock:
        return [dict(record) for record in _fired]


def _match(operation: str, path: str) -> IOFaultSpec | None:
    """The first fault due for this call, advancing match counters."""
    plan = active_io_plan()
    if not plan:
        return None
    with _lock:
        due: IOFaultSpec | None = None
        for slot, fault in enumerate(plan):
            if not fault.applies_to(operation, path):
                continue
            seen = _counters.get(slot, 0)
            _counters[slot] = seen + 1
            if due is None and (
                seen == fault.count or (fault.repeat and seen >= fault.count)
            ):
                due = fault
        if due is not None:
            _fired.append(
                {"kind": due.kind, "operation": operation, "path": path}
            )
        return due


# -- the shim -----------------------------------------------------------


def shim_write(stream, data: bytes, path: str | Path) -> None:
    """Write ``data`` to an open binary stream, subject to the fault plan.

    The storage tier calls this instead of ``stream.write`` for every
    durable append/stage so a plan can hit one exact write.  Fault
    behavior: ``enospc`` writes nothing and raises; ``torn-write`` writes
    a strict prefix then raises; ``bit-flip`` silently corrupts one byte
    and succeeds.
    """
    fault = _match("write", str(path))
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
    if fault.kind == "bit-flip" and data:
        corrupted = bytearray(data)
        corrupted[len(corrupted) // 2] ^= 0x20
        stream.write(bytes(corrupted))
        return
    stream.write(data)


def shim_fsync(stream, path: str | Path) -> None:
    """``flush`` + ``os.fsync`` the stream, subject to the fault plan."""
    stream.flush()
    fault = _match("fsync", str(path))
    if fault is not None and fault.kind == "fsync-fail":
        raise OSError(errno.EIO, f"injected fault: fsync failed for {path}")
    os.fsync(stream.fileno())


def shim_replace(src: str | Path, dst: str | Path) -> None:
    """``os.replace``, subject to the fault plan (keyed on the *target*).

    ``enospc`` here models a rename failing on a full disk's metadata
    update: the destination is untouched and the staged source remains.
    """
    fault = _match("replace", str(dst))
    if fault is not None and fault.kind == "enospc":
        raise OSError(
            errno.ENOSPC, f"injected fault: no space left on device: {dst}"
        )
    os.replace(src, dst)


@contextmanager
def io_faults(*specs: IOFaultSpec):
    """Scoped plan installation for tests::

        with io_faults(IOFaultSpec("torn-write", path="journal")):
            ...

    Restores the previously installed plan (and fresh counters) on exit.
    """
    with _lock:
        previous = _installed
    install_io_plan(specs)
    try:
        yield
    finally:
        install_io_plan(previous)
