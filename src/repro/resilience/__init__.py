"""Campaign resilience: checkpoint/resume, retries, breakers, fault injection.

Long multi-framework campaigns (the paper's Tables IV/V are 360 cells)
fail in mundane ways: a worker OOMs, the machine reboots, one framework
crash-loops on one kernel.  PR 1 gave the runner fault *isolation* (a bad
cell becomes a structured result) and PR 2 a hard-kill parallel executor;
this package makes the campaign layer *survive and degrade gracefully*:

* :mod:`~repro.resilience.journal` — a crash-safe checkpoint journal.
  Every completed cell is appended (atomically, flushed) to a JSONL file;
  ``run --resume`` validates the spec/environment fingerprint and skips
  already-completed cells, re-assembling the canonical ``ResultSet``.
* :mod:`~repro.resilience.retry` — a retry policy with deterministic
  (jitter-free) exponential backoff, driven by an error classifier that
  retries only *transient* failures (worker crash, OOM, corruption) and
  never deterministic ones (verification mismatch, ``ValueError``).
* :mod:`~repro.resilience.breaker` — a per-(framework, kernel) circuit
  breaker: after K consecutive hard failures the remaining cells of that
  combo become structured ``skipped`` results instead of burning their
  full timeout budget.
* :mod:`~repro.resilience.faults` — a deterministic fault-injection
  harness (hooks via spec or the ``REPRO_FAULTS`` env var) that forces
  crash / hang / OOM / wrong-result / cache-corruption at a chosen
  cell and attempt, so all of the above is tested without timing-flaky
  tests and is reusable for chaos CI.
* :mod:`~repro.resilience.signals` — SIGTERM-to-exception translation so
  a terminated campaign still flushes its journal and unlinks its
  shared-memory segments on the way out.

See ``docs/RESILIENCE.md`` for formats, semantics, and the hook reference.
"""

from .breaker import CircuitBreaker
from .faults import FaultSpec, active_plan, parse_plan
from ..iofaults import (
    IOFaultSpec,
    active_io_plan,
    clear_io_plan,
    fired_io_faults,
    install_io_plan,
    io_faults,
    parse_io_plan,
)
from .journal import (
    JOURNAL_VERSION,
    CheckpointJournal,
    campaign_fingerprint,
    read_journal,
)
from .retry import CLASS_DETERMINISTIC, CLASS_TRANSIENT, RetryPolicy, classify_failure
from .signals import graceful_shutdown

__all__ = [
    "CLASS_DETERMINISTIC",
    "CLASS_TRANSIENT",
    "CheckpointJournal",
    "CircuitBreaker",
    "FaultSpec",
    "IOFaultSpec",
    "JOURNAL_VERSION",
    "RetryPolicy",
    "active_io_plan",
    "active_plan",
    "campaign_fingerprint",
    "classify_failure",
    "clear_io_plan",
    "fired_io_faults",
    "graceful_shutdown",
    "install_io_plan",
    "io_faults",
    "parse_io_plan",
    "read_journal",
]
