"""Deterministic fault injection for the benchmark harness.

Chaos testing a campaign runner with *timing* (sleep here, hope the race
happens there) produces flaky tests.  This module injects faults at exact,
named points instead: a :class:`FaultSpec` says *which cell* (framework /
kernel / graph / mode, each optionally a wildcard), *which attempt*, and
*what happens* — so a test can demand "the worker running gap/cc/kron
crashes on attempt 0 and only attempt 0" and get exactly that, every run.

Fault kinds (``FAULT_KINDS``):

* ``crash`` — the executing process exits immediately (``os._exit``) with
  :data:`CRASH_EXIT_CODE`.  In a worker this simulates a segfault/OOM-kill;
  in a serial campaign it kills the whole process, which is how the
  checkpoint/resume tests produce a genuinely interrupted campaign.
* ``hang`` — an interruptible sleep loop; the per-trial ``SIGALRM``
  deadline (serial or in-worker) converts it into a ``timeout`` result.
  Only use with a ``trial_timeout``.
* ``hang-hard`` — ignores ``SIGALRM`` and spins, simulating a kernel stuck
  in one long C call; only the process backend's hard kill can end it.
* ``oom`` — raises :class:`MemoryError` (classified *transient*).
* ``error`` — raises :class:`ValueError` (classified *deterministic*).
* ``wrong-result`` — perturbs the kernel output so verification fails
  (a deterministic failure that must never be retried).
* ``cache-corrupt`` — flips bytes in the on-disk graph-cache artifact
  before it is read, exercising the corruption-degrades-to-a-miss path.

Plans are injected two ways, and both are merged by :func:`active_plan`:

* programmatically, via ``BenchmarkSpec(faults=(...))`` — the spec already
  travels to worker processes, so the plan does too;
* externally, via the ``REPRO_FAULTS`` environment variable holding the
  JSON form (see :func:`parse_plan`), which needs no API access — this is
  what chaos CI and the CLI-level kill/resume tests use.

Injection points are hard-wired into the runner: :func:`fire` inside the
timed trial (crash/hang/oom/error), :func:`transform_output` on the
verification trial's output (wrong-result), and :func:`corrupt_cache`
in ``build_case`` (cache-corrupt).  All matching is pure and stateless,
so a fault plan is deterministic by construction.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CRASH_EXIT_CODE",
    "FAULT_KINDS",
    "FaultSpec",
    "FAULTS_ENV",
    "active_plan",
    "corrupt_cache",
    "fire",
    "parse_plan",
    "transform_output",
]

#: Environment variable carrying a JSON fault plan (see :func:`parse_plan`).
FAULTS_ENV = "REPRO_FAULTS"

#: Exit status used by the ``crash`` fault, distinctive enough to assert on.
CRASH_EXIT_CODE = 86

FAULT_KINDS = (
    "crash",
    "hang",
    "hang-hard",
    "oom",
    "error",
    "wrong-result",
    "cache-corrupt",
)


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: where it fires and what it does.

    ``framework`` / ``kernel`` / ``graph`` / ``mode`` are exact-match
    filters; ``None`` matches anything.  ``attempts`` is the tuple of
    attempt numbers (0-based) the fault fires on; ``None`` means every
    attempt — a *persistent* fault, which is how breaker tests model a
    permanently broken combo.
    """

    kind: str
    framework: str | None = None
    kernel: str | None = None
    graph: str | None = None
    mode: str | None = None
    attempts: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )

    def matches(
        self,
        framework: str,
        kernel: str,
        graph: str,
        mode: str,
        attempt: int,
    ) -> bool:
        """True when this fault fires for the given cell and attempt."""
        for want, got in (
            (self.framework, framework),
            (self.kernel, kernel),
            (self.graph, graph),
            (self.mode, mode),
        ):
            if want is not None and want != got:
                return False
        return self.attempts is None or attempt in self.attempts

    def as_dict(self) -> dict[str, object]:
        """JSON form (the :func:`parse_plan` entry shape), omitting wildcards."""
        out: dict[str, object] = {"kind": self.kind}
        for key in ("framework", "kernel", "graph", "mode"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.attempts is not None:
            out["attempts"] = list(self.attempts)
        return out


def parse_plan(text: str) -> tuple[FaultSpec, ...]:
    """Parse the JSON fault-plan form: a list of FaultSpec dicts.

    Example::

        [{"kind": "crash", "kernel": "cc", "mode": "optimized",
          "attempts": [0]}]
    """
    raw = json.loads(text)
    if not isinstance(raw, list):
        raise ValueError("fault plan must be a JSON list of fault objects")
    faults = []
    for item in raw:
        if not isinstance(item, dict) or "kind" not in item:
            raise ValueError(f"fault entry {item!r} needs at least a 'kind'")
        attempts = item.get("attempts")
        faults.append(
            FaultSpec(
                kind=str(item["kind"]),
                framework=item.get("framework"),
                kernel=item.get("kernel"),
                graph=item.get("graph"),
                mode=item.get("mode"),
                attempts=tuple(int(a) for a in attempts)
                if attempts is not None
                else None,
            )
        )
    return tuple(faults)


def active_plan(spec) -> tuple[FaultSpec, ...]:
    """The effective fault plan: ``spec.faults`` plus ``$REPRO_FAULTS``.

    Workers inherit the environment, so an env-injected plan reaches them
    under both fork and spawn without any protocol change.
    """
    plan = tuple(getattr(spec, "faults", ()) or ())
    text = os.environ.get(FAULTS_ENV)
    if text:
        plan = plan + parse_plan(text)
    return plan


def fire(
    plan: tuple[FaultSpec, ...],
    framework: str,
    kernel: str,
    graph: str,
    mode: str,
    attempt: int,
) -> None:
    """Trigger any matching in-trial fault (crash / hang / oom / error).

    Called by the runner inside the trial's deadline scope, so ``hang`` is
    interruptible exactly like a real slow kernel would be.
    """
    for fault in plan:
        if not fault.matches(framework, kernel, graph, mode, attempt):
            continue
        if fault.kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        if fault.kind == "hang":
            while True:
                time.sleep(0.05)
        if fault.kind == "hang-hard":
            if hasattr(signal, "SIGALRM"):
                signal.signal(signal.SIGALRM, signal.SIG_IGN)
            while True:
                time.sleep(0.05)
        if fault.kind == "oom":
            raise MemoryError(
                f"injected fault: oom at {framework}/{kernel}/{graph}/{mode} "
                f"attempt {attempt}"
            )
        if fault.kind == "error":
            raise ValueError(
                f"injected fault: deterministic error at "
                f"{framework}/{kernel}/{graph}/{mode} attempt {attempt}"
            )


def transform_output(
    plan: tuple[FaultSpec, ...],
    framework: str,
    kernel: str,
    graph: str,
    mode: str,
    attempt: int,
    output,
):
    """Apply a matching ``wrong-result`` fault to a kernel output.

    The perturbation is minimal but always verification-visible: numeric
    arrays get their first element bumped, scalar outputs (TC's count)
    are off by one.
    """
    for fault in plan:
        if fault.kind != "wrong-result":
            continue
        if not fault.matches(framework, kernel, graph, mode, attempt):
            continue
        if isinstance(output, np.ndarray) and output.size:
            corrupted = output.copy()
            corrupted[0] = corrupted.flat[0] + 1
            return corrupted
        if isinstance(output, (int, float, np.integer, np.floating)):
            return type(output)(output + 1)
    return output


def corrupt_cache(
    plan: tuple[FaultSpec, ...], cache, name: str, scale: int, seed: int
) -> bool:
    """Apply a matching ``cache-corrupt`` fault to an on-disk artifact.

    Overwrites the head of the cached ``.npz`` (leaving its checksum
    sidecar stale) so the next load fails validation and degrades to a
    miss.  Returns True when an artifact was corrupted.
    """
    for fault in plan:
        if fault.kind != "cache-corrupt":
            continue
        if fault.graph is not None and fault.graph != name:
            continue
        path = cache.path_for(name, scale, seed)
        try:
            with open(path, "r+b") as stream:
                stream.write(b"\x00corrupted\x00")
            return True
        except OSError:
            return False
    return False
