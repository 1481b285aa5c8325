"""Machine-independent work counters.

Wall-clock seconds in a pure-Python reproduction are dominated by
interpreter overheads that the paper's C++ systems do not pay, so alongside
timing we count *work*: edges examined, algorithm rounds/iterations, and
vertices touched.  These counters make the paper's work-efficiency claims
(asynchronous scheduling does fewer rounds on Road, Gauss–Seidel converges
in fewer iterations than Jacobi, label propagation scans O(E·D) edges on
Road) directly observable and testable.

Kernels report into the *active* counter set, enabled with::

    with counting() as counters:
        framework.bfs(graph, 0)
    print(counters.edges_examined, counters.rounds)

When no counter set is active, reporting is a cheap no-op.  This is a
leaf module: it imports nothing from ``repro``, so every layer down to
the shared ``repro.la`` bodies, which count their own work, can report.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "WorkCounters",
    "counting",
    "add_edges",
    "add_round",
    "add_steps",
    "add_iteration",
    "add_vertices",
    "note",
]


@dataclass
class WorkCounters:
    """Accumulated work metrics for one kernel run."""

    edges_examined: int = 0
    vertices_touched: int = 0
    rounds: int = 0
    iterations: int = 0
    extras: dict[str, float] = field(default_factory=dict)

    def note(self, key: str, value: float) -> None:
        """Record a named one-off metric (e.g. direction switches)."""
        self.extras[key] = self.extras.get(key, 0.0) + value


# The active stack is thread-local: the thread backend runs cells
# on concurrent threads, and each trial's counters must accumulate into
# that trial's set only — a shared stack would interleave them.
_local = threading.local()


def _stack() -> list[WorkCounters]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


@contextlib.contextmanager
def counting() -> Iterator[WorkCounters]:
    """Activate a fresh counter set for the duration of the block."""
    counters = WorkCounters()
    stack = _stack()
    stack.append(counters)
    try:
        yield counters
    finally:
        stack.pop()


def add_edges(count: int) -> None:
    """Report edges examined by the running kernel."""
    stack = _stack()
    if stack:
        stack[-1].edges_examined += int(count)


def add_vertices(count: int) -> None:
    """Report vertices touched by the running kernel."""
    stack = _stack()
    if stack:
        stack[-1].vertices_touched += int(count)


def add_round(count: int = 1) -> None:
    """Report synchronization rounds (frontier step, bucket, ...)."""
    stack = _stack()
    if stack:
        stack[-1].rounds += int(count)


def add_steps(steps: Iterable) -> None:
    """Report a traversal's step record (``la.direction.Step``).

    A round is a step: the frontier it expanded and the edges it examined.
    The emptied frontier that ends a traversal is not one.
    """
    stack = _stack()
    if stack:
        for step in steps:
            stack[-1].rounds += 1
            stack[-1].edges_examined += int(step.edges_examined)


def add_iteration(count: int = 1) -> None:
    """Report full-sweep iterations (PR iteration, SV pass, ...)."""
    stack = _stack()
    if stack:
        stack[-1].iterations += int(count)


def note(key: str, value: float = 1.0) -> None:
    """Accumulate a named metric (e.g. 'direction_switches')."""
    stack = _stack()
    if stack:
        stack[-1].note(key, value)
