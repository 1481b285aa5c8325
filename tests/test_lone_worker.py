"""One warm worker never waits on its parent (``repro.core.campaign``).

``repro serve`` runs every miss on a one-worker :class:`WorkerPool`, so
these tests pin what the process backend does with a single slot:

* a campaign reaches the worker as a few cost-model batches, not one
  message per cell, and everything observable stays per cell — the
  journal in canonical order, each append before its ``on_result``,
  results and work counters equal to the inline backend's;
* without a hard deadline the slot takes its next batch while its last
  cell is still outstanding; a crash then loses only the in-flight cell,
  and the queued batch runs exactly once on the replacement worker;
* with ``trial_timeout`` set every batch is one cell, and nothing is
  queued behind a cell the parent may have to kill;
* freshly built graphs reach the graph cache after the first batch is
  dispatched, and a cache that cannot be written costs no cell.
"""

import dataclasses
import time
from collections import Counter

import pytest

from repro.core import BenchmarkSpec, WorkerPool, run_suite
from repro.faults import CRASH_EXIT_CODE, Fault, installed
from repro.frameworks import Mode, RunContext, get
from repro.gapbs import GAPReference
from repro.graphs import cache as cache_mod
from repro.graphs.cache import GraphCache
from repro.resilience.journal import CheckpointJournal, read_journal

GRAPHS = ["kron", "road"]
KERNELS = ["bfs", "cc", "pr"]
#: The service's miss shape: 2 graphs x 3 kernels x 2 frameworks = 12 cells.
SPEC = BenchmarkSpec(scale=8)


class SlowPreparePR(GAPReference):
    """GAP whose untimed PR ``prepare`` on kron takes a while, so the
    parent has long since queued the next batch when the cell runs."""

    attributes = dataclasses.replace(GAPReference.attributes, name="slow-prepare")

    def prepare(self, kernel, graph, ctx=RunContext()):
        if kernel == "pr" and ctx.graph_name == "kron":
            time.sleep(0.3)
        return super().prepare(kernel, graph, ctx)


def _normalized(results):
    return [
        (r.cell_key, r.status, r.verified, r.edges_examined, r.rounds, r.iterations)
        for r in results
    ]


@pytest.fixture
def log(monkeypatch):
    """One ordered record of dispatches, cache writes, journal appends and
    ``on_result`` calls, spied on in this (the parent) process."""
    events = []
    submit = WorkerPool.submit
    write = cache_mod.atomic_write
    record = CheckpointJournal.record

    def spy_submit(self, slot, items):
        events.append(("submit", [cell.index for cell, _ in items]))
        return submit(self, slot, items)

    def spy_write(path, data):
        events.append(("write", str(path)))
        return write(path, data)

    def spy_record(self, result):
        events.append(("journal", result.cell_key))
        return record(self, result)

    monkeypatch.setattr(WorkerPool, "submit", spy_submit)
    monkeypatch.setattr(cache_mod, "atomic_write", spy_write)
    monkeypatch.setattr(CheckpointJournal, "record", spy_record)
    return events


def _campaign(pool, frameworks=(get("gap"), get("gkc")), spec=SPEC, log=None, **kw):
    def on_result(cell, result):
        if log is not None:
            log.append(("result", cell.key))

    return run_suite(
        list(frameworks), GRAPHS, kernels=KERNELS, modes=[Mode.BASELINE],
        spec=spec, pool=pool, on_result=on_result, **kw,
    )


def _submits(log):
    return [indices for kind, indices in log if kind == "submit"]


def test_twelve_cells_reach_one_worker_in_four_batches(log, tmp_path):
    journal = tmp_path / "campaign.jsonl"
    with WorkerPool(1) as pool:
        results = _campaign(pool, log=log, journal=str(journal))
    submits = _submits(log)
    assert len(submits) <= 4  # one message per cell would be 12
    assert [i for batch in submits for i in batch] == list(range(12))
    assert all(r.ok and r.verified for r in results)

    _, journaled = read_journal(journal)
    assert list(journaled) == [r.cell_key for r in results]  # canonical
    appends = [(kind, key) for kind, key in log if kind in ("journal", "result")]
    assert appends == [
        (kind, r.cell_key) for r in results for kind in ("journal", "result")
    ]
    inline = _campaign(None, jobs=1)
    assert _normalized(results) == _normalized(inline)


def test_a_crash_loses_only_its_cell_and_the_queued_batch_runs_once(log):
    # Trial counts of 1 make every batch three cells: [0-2] [3-5] [6-8]
    # [9-11].  Cell 5 (kron/pr/slow-prepare) ends its batch and crashes
    # with [6-8] queued behind it; cell 10 (road/pr/gap) crashes mid-batch.
    spec = BenchmarkSpec(scale=8, trials={kernel: 1 for kernel in KERNELS})
    started = []
    plan = (
        Fault("crash", framework="slow-prepare", kernel="pr", graph="kron"),
        Fault("crash", framework="gap", kernel="pr", graph="road"),
    )
    with WorkerPool(1) as pool, installed(*plan):
        results = list(_campaign(
            pool, (GAPReference(), SlowPreparePR()), spec, log=log,
            progress=started.append,
        ))
    lost = {5, 10}
    for index, result in enumerate(results):
        if index in lost:
            assert result.status == "error"
            assert f"exit code {CRASH_EXIT_CODE}" in result.error
        else:
            assert result.ok and result.attempts == 1
    # Every cell started exactly once: nothing queued was run twice.
    assert sorted(Counter(started).values()) == [1] * 12
    submits = _submits(log)
    # [6-8] was on the worker before cell 5 was lost, and went back
    # whole to the replacement; [11] is all that followed cell 10.
    cell5 = log.index(("result", results[5].cell_key))
    assert ("submit", [6, 7, 8]) in log[:cell5]
    assert submits.count([6, 7, 8]) == 2
    assert submits[-1] == [11]


def test_a_hard_deadline_dispatches_one_cell_at_a_time(log):
    spec = BenchmarkSpec(scale=8, trial_timeout=30.0)
    with WorkerPool(1) as pool:
        results = _campaign(pool, spec=spec, log=log)
    assert all(r.ok for r in results)
    dispatch = [
        (kind, value) for kind, value in log if kind in ("submit", "result")
    ]
    # Each cell alone, and the next only once the last one has reported.
    assert dispatch == [
        entry
        for index, r in enumerate(results)
        for entry in (("submit", [index]), ("result", r.cell_key))
    ]


def test_the_graph_cache_is_written_after_the_first_dispatch(log, tmp_path):
    cache = GraphCache(tmp_path / "graphs")
    with WorkerPool(1) as pool:
        results = _campaign(pool, log=log, cache=cache)
    assert all(r.ok for r in results)
    for graph in GRAPHS:
        assert cache.load_views(graph, SPEC.scale, SPEC.seed) is not None
    kinds = [kind for kind, _ in log]
    assert "write" in kinds
    assert kinds.index("submit") < kinds.index("write")


def test_an_unwritable_graph_cache_costs_no_cell(tmp_path):
    cache = GraphCache(tmp_path / "graphs")
    with WorkerPool(1) as pool, installed(Fault("enospc", path=".npz", times=None)):
        results = _campaign(pool, cache=cache)
    assert len(results) == 12
    assert all(r.ok and r.verified for r in results)
    assert cache.load_views("kron", SPEC.scale, SPEC.seed) is None
