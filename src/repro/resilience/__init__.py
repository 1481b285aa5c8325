"""Campaign resilience: checkpoint/resume, retries, breakers, signals.

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
* :mod:`~repro.resilience.signals` — SIGTERM-to-exception translation so
  a terminated campaign still flushes its journal and unlinks its
  shared-memory segments on the way out.

All of the above is tested by injecting faults at exact points through
the leaf module :mod:`repro.faults`, without timing-flaky tests.

See ``docs/RESILIENCE.md`` for formats, semantics, and the hook reference.
"""

from .breaker import CircuitBreaker
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
    "JOURNAL_VERSION",
    "RetryPolicy",
    "campaign_fingerprint",
    "classify_failure",
    "graceful_shutdown",
    "read_journal",
]
