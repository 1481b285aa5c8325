"""Batch planner: groups campaign cells into multi-cell dispatch units.

``BENCH_runner_scaling.json`` showed the parallel executor *losing* to
serial (0.41x at ``--jobs 2``): with one queue message per cell, dispatch
latency — pickle, queue wakeup, the supervisor's poll loop — was charged
to every cell, and the paper-scale cells are far too small to amortize
it.  The fix has two halves: warm worker pools (:mod:`repro.core.pool`)
amortize process spawn, and this module amortizes *dispatch* by handing
each worker a batch of cells per message.

The planner obeys three invariants, pinned by ``tests/test_batching.py``:

* **Exact partition** — concatenating the planned batches reproduces the
  input cell list, in order, with no cell duplicated or dropped.  Batches
  are contiguous runs of the canonical cell order, so results still
  assemble deterministically and journal resume maps 1:1 onto batches.
* **Timeout-sensitive cells ride alone** — a cell subject to a hard
  deadline (``spec.trial_timeout`` set) is never packed with neighbors:
  the parent's kill budget stays per-cell, and killing an over-budget
  worker can never destroy sibling cells that were merely queued behind
  the hung one.
* **Per-cell dispatch only on request** — an explicit ``batch_size=1``
  plans singleton batches, reproducing the original one-message-per-cell
  behavior exactly (the inline backend asks for it).  A single worker
  (``jobs=1``) is batched like any other: one message per cell would
  leave it idle through every dispatch round trip and journal ``fsync``.

Batch size is chosen by a cost model over *trial counts*: each cell's
cost is its planned trial count (``spec.num_trials``), and the planner
packs cells until a batch reaches the target cost — the total cost
divided over ``jobs * BATCHES_PER_WORKER`` batches.  Several batches per
worker keeps the tail short (a worker that drew fast cells picks up more
work) without paying per-cell dispatch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from ..frameworks.base import Mode
from .spec import BenchmarkSpec

__all__ = [
    "BATCHES_PER_WORKER",
    "Cell",
    "canonical_order",
    "enumerate_cells",
    "plan_batches",
]

#: Load-balancing granularity of the auto cost model: the planner aims for
#: this many batches per worker, so stragglers even out while dispatch
#: overhead stays ~1/batch_size of the per-cell scheme.
BATCHES_PER_WORKER = 4


@dataclass(frozen=True)
class Cell:
    """One schedulable unit: a (graph, mode, kernel, framework) cell.

    ``index`` is the cell's position in the canonical campaign order —
    the campaign loop keys its bookkeeping and final ResultSet assembly
    on it, so it must be unique and dense within one campaign.
    """

    index: int
    graph: str
    mode: Mode
    kernel: str
    framework: str

    @property
    def label(self) -> str:
        return f"{self.mode.value}/{self.graph}/{self.kernel}/{self.framework}"

    @property
    def key(self) -> tuple[str, str, str, str]:
        """The cell's identity, equal to ``RunResult.cell_key``."""
        return (self.graph, self.mode.value, self.kernel, self.framework)


def canonical_order(
    graphs: Iterable, modes: Iterable, kernels: Iterable, frameworks: Iterable
) -> Iterator[tuple]:
    """The campaign grid in canonical cell order: graph → mode → kernel → framework.

    The one place the order is spelled out; results, journals, event
    streams and batches all follow it.  Yields ``(graph, mode, kernel,
    framework)`` tuples of whatever axis values were passed in.
    """
    return itertools.product(graphs, modes, kernels, frameworks)


def enumerate_cells(
    graphs: Iterable[str],
    modes: Iterable[Mode],
    kernels: Iterable[str],
    framework_names: Iterable[str],
) -> list[Cell]:
    """The campaign's cells, indexed densely in :func:`canonical_order`."""
    order = canonical_order(graphs, modes, kernels, framework_names)
    return [Cell(index, *axes) for index, axes in enumerate(order)]


def _default_sensitive(spec: BenchmarkSpec) -> Callable[[Cell], bool]:
    """Timeout sensitivity under the current spec.

    Today a trial deadline is campaign-wide, so every cell of a
    ``trial_timeout`` campaign is sensitive; the predicate is per-cell so
    a future per-kernel timeout only changes this function.
    """
    sensitive = spec.trial_timeout is not None
    return lambda cell: sensitive


def plan_batches(
    cells: Sequence[Cell],
    spec: BenchmarkSpec,
    jobs: int,
    batch_size: int | None = None,
    sensitive: Callable[[Cell], bool] | None = None,
) -> list[list[Cell]]:
    """Partition ``cells`` (in order) into dispatch batches.

    ``batch_size=None`` (the default) sizes batches by the trial-count
    cost model; an explicit value caps batches at that many cells
    (``1`` = per-cell dispatch).  ``sensitive`` overrides the
    timeout-sensitivity predicate (tests use this to mix sensitive and
    batchable cells in one plan).
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if sensitive is None:
        sensitive = _default_sensitive(spec)
    cells = list(cells)
    if not cells:
        return []

    if batch_size == 1:
        return [[cell] for cell in cells]

    cost = lambda cell: max(1, spec.num_trials(cell.kernel))
    if batch_size is None:
        batchable_cost = sum(cost(c) for c in cells if not sensitive(c))
        target_batches = max(1, jobs * BATCHES_PER_WORKER)
        target_cost = max(1, -(-batchable_cost // target_batches))
    else:
        target_cost = None

    batches: list[list[Cell]] = []
    current: list[Cell] = []
    current_cost = 0

    def flush() -> None:
        nonlocal current, current_cost
        if current:
            batches.append(current)
            current, current_cost = [], 0

    for cell in cells:
        if sensitive(cell):
            # Hard-deadline cells are their own batch: the kill budget and
            # any worker kill stay scoped to exactly one cell.
            flush()
            batches.append([cell])
            continue
        current.append(cell)
        current_cost += cost(cell)
        if target_cost is not None:
            if current_cost >= target_cost:
                flush()
        elif len(current) >= batch_size:
            flush()
    flush()
    return batches
