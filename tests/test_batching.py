"""Batch-planner invariants (see ``repro.core.batching``).

Tier-1 guarantees pinned here:

* the planned batches are an exact partition of the input cell list —
  order preserved, nothing duplicated, nothing dropped — across a grid
  of cell counts, job counts, and batch sizes;
* timeout-sensitive cells are never packed with neighbors: a cell under
  a hard deadline always forms a singleton batch;
* ``batch_size=1`` degrades to per-cell dispatch exactly, while ``jobs=1``
  is batched by the cost model like any other worker count;
* the auto cost model actually batches (multi-cell batches exist) while
  keeping enough batches per worker to load-balance.
"""

import pytest

from repro.core import BenchmarkSpec
from repro.core.batching import BATCHES_PER_WORKER, Cell, plan_batches
from repro.frameworks import KERNELS, Mode

KERNEL_CYCLE = list(KERNELS)


def _cells(count):
    """A deterministic synthetic campaign of ``count`` cells."""
    return [
        Cell(
            index=i,
            graph=f"g{i % 3}",
            mode=Mode.BASELINE if i % 2 == 0 else Mode.OPTIMIZED,
            kernel=KERNEL_CYCLE[i % len(KERNEL_CYCLE)],
            framework=f"fw{i % 4}",
        )
        for i in range(count)
    ]


SPEC = BenchmarkSpec(scale=8)
GRID = [
    (count, jobs, batch_size)
    for count in (0, 1, 2, 7, 30, 360)
    for jobs in (1, 2, 4, 8)
    for batch_size in (None, 1, 3, 100)
]


@pytest.mark.parametrize("count,jobs,batch_size", GRID)
def test_batches_partition_cells_exactly_once(count, jobs, batch_size):
    cells = _cells(count)
    batches = plan_batches(cells, SPEC, jobs, batch_size)
    flattened = [cell for batch in batches for cell in batch]
    assert flattened == cells  # order kept, no duplicates, no drops
    assert all(batch for batch in batches)  # no empty batches


@pytest.mark.parametrize("count,jobs,batch_size", GRID)
def test_sensitive_cells_are_always_singletons(count, jobs, batch_size):
    cells = _cells(count)
    sensitive = lambda cell: cell.index % 5 == 0
    batches = plan_batches(cells, SPEC, jobs, batch_size, sensitive=sensitive)
    assert [cell for batch in batches for cell in batch] == cells
    for batch in batches:
        if any(sensitive(cell) for cell in batch):
            assert len(batch) == 1


def test_trial_timeout_makes_every_cell_sensitive():
    spec = BenchmarkSpec(scale=8, trial_timeout=5.0)
    batches = plan_batches(_cells(40), spec, jobs=4)
    assert all(len(batch) == 1 for batch in batches)


@pytest.mark.parametrize("count", [12, 30, 360])
def test_jobs_1_gets_cost_model_batches(count):
    """A lone worker is batched too: one message per cell would leave it
    waiting on its parent through every dispatch round trip."""
    cells = _cells(count)
    batches = plan_batches(cells, SPEC, jobs=1)
    assert [cell for batch in batches for cell in batch] == cells
    assert len(batches) <= BATCHES_PER_WORKER + 1
    assert any(len(batch) > 1 for batch in batches)
    # Only per-cell dispatch on request, and for deadline-sensitive cells.
    assert all(len(b) == 1 for b in plan_batches(cells, SPEC, jobs=1, batch_size=1))
    sensitive = lambda cell: True
    assert all(
        len(b) == 1 for b in plan_batches(cells, SPEC, jobs=1, sensitive=sensitive)
    )


def test_batch_size_1_degrades_to_per_cell_dispatch():
    batches = plan_batches(_cells(30), SPEC, jobs=4, batch_size=1)
    assert all(len(batch) == 1 for batch in batches)


def test_explicit_batch_size_caps_batch_length():
    batches = plan_batches(_cells(100), SPEC, jobs=4, batch_size=7)
    assert max(len(batch) for batch in batches) <= 7
    assert any(len(batch) > 1 for batch in batches)


def test_auto_model_batches_but_keeps_workers_fed():
    """Without a deadline, the cost model forms multi-cell batches while
    planning several batches per worker for load balancing."""
    jobs = 2
    cells = _cells(360)
    batches = plan_batches(cells, SPEC, jobs)
    assert any(len(batch) > 1 for batch in batches)
    # Enough batches that a worker drawing fast cells picks up more work.
    assert len(batches) >= jobs * BATCHES_PER_WORKER // 2
    # Dispatch overhead actually amortized: far fewer messages than cells.
    assert len(batches) < len(cells) // 2


def test_mixed_sensitivity_plan_keeps_batchable_cells_batched():
    cells = _cells(60)
    sensitive = lambda cell: cell.index in (10, 30)
    batches = plan_batches(cells, SPEC, jobs=2, sensitive=sensitive)
    singleton_indices = {
        batch[0].index for batch in batches if len(batch) == 1
    }
    assert {10, 30} <= singleton_indices
    assert any(len(batch) > 1 for batch in batches)


def test_invalid_batch_size_rejected():
    with pytest.raises(ValueError):
        plan_batches(_cells(4), SPEC, jobs=2, batch_size=0)


def test_empty_cell_list_plans_no_batches():
    assert plan_batches([], SPEC, jobs=4) == []
