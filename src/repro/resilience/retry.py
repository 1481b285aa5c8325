"""Retry policy with transient/deterministic failure classification.

The GAP suite prescribes best-of-k trials because individual runs
misbehave; at the *campaign* level the analogous hazard is the individual
cell.  Retrying blindly is wrong twice over: a verification mismatch or a
``ValueError`` is a property of the code, so re-running it wastes budget
and — worse — can mask a real bug behind an "eventually passed" cell.
This module therefore separates *what failed* from *whether to retry*:

* :func:`classify_failure` maps a failed cell to ``transient`` (worker
  crash, OOM-kill, cache/shared-memory corruption, broken IPC — the
  environment misbehaved) or ``deterministic`` (verification mismatch,
  ``ValueError``, and anything unrecognized — the code misbehaved).
  Unknown failure types default to deterministic: never retry what you
  cannot explain.
* :class:`RetryPolicy` retries only transient *errors*, with jitter-free
  exponential backoff (``base * factor**attempt``, capped).  Timeouts are
  never retried — a timed-out cell already consumed its full budget, and
  a genuinely hung kernel stays hung; the circuit breaker
  (:mod:`repro.resilience.breaker`) is the mechanism that stops a combo
  from timing out thirty times.

Backoff is deliberately deterministic (no jitter): a benchmark campaign
retries against *itself*, not against a contended shared service, so the
thundering-herd rationale for jitter does not apply — and determinism is
what lets the fault-injection tests pin exact schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CLASS_DETERMINISTIC",
    "CLASS_TRANSIENT",
    "RetryPolicy",
    "TRANSIENT_ERROR_TYPES",
    "classify_failure",
]

CLASS_TRANSIENT = "transient"
CLASS_DETERMINISTIC = "deterministic"

#: The backoff schedule: 50 ms, doubling, capped at 5 s.
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 5.0

#: Exception type names whose failures are environmental, not logical.
#: ``WorkerCrash`` is the synthetic type the campaign loop assigns to
#: a cell whose worker died; ``GraphFormatError`` surfaces corrupted cache
#: or shared-memory payloads; the OS/IPC types cover queue and
#: shared-memory attach failures.
TRANSIENT_ERROR_TYPES = frozenset(
    {
        "MemoryError",
        "WorkerCrash",
        "GraphFormatError",
        "OSError",
        "IOError",
        "EOFError",
        "BrokenPipeError",
        "ConnectionError",
        "ConnectionResetError",
        "BufferError",
        "FileNotFoundError",
    }
)

#: Error-text fragments that mark a transient failure even when the text
#: carries no exception-type prefix (e.g. parent-side worker-death records).
_TRANSIENT_MARKERS = (
    "worker process died",
    "shared memory",
    "sharedmemory",
    "corrupt",
    "oom",
)


def classify_failure(status: str, error: str) -> str:
    """Classify a failed cell's ``(status, error)`` for retry purposes.

    ``status`` is the result status (``error`` / ``timeout`` / ...);
    ``error`` the recorded message, conventionally ``"Type: message"``.
    Timeouts and anything unrecognized classify as deterministic.
    """
    if status != "error":
        return CLASS_DETERMINISTIC
    error_type = error.split(":", 1)[0].strip()
    if error_type in TRANSIENT_ERROR_TYPES:
        return CLASS_TRANSIENT
    lowered = error.lower()
    if any(marker in lowered for marker in _TRANSIENT_MARKERS):
        return CLASS_TRANSIENT
    return CLASS_DETERMINISTIC


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic retry schedule for transient cell failures.

    ``retries`` is the number of *re*-executions allowed per cell (0
    disables retrying entirely, the default).
    """

    retries: int = 0

    def backoff_seconds(self, attempt: int) -> float:
        """Delay before re-running attempt ``attempt + 1`` (jitter-free)."""
        return min(BACKOFF_BASE * BACKOFF_FACTOR**attempt, BACKOFF_MAX)

    def should_retry(self, status: str, error: str, attempt: int) -> bool:
        """True when attempt ``attempt`` failed transiently and budget remains."""
        if attempt >= self.retries:
            return False
        return classify_failure(status, error) == CLASS_TRANSIENT
