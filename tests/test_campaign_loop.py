"""The campaign loop's settle policy, driven through a scripted backend.

No threads, no fork, no real sleeps: ``ScriptedBackend`` implements the
five-method :class:`repro.core.campaign.Backend` contract over a script
saying what each ``(cell, attempt)`` does, and the loop's clock is a
``FakeClock`` that only moves when someone waits on it.  Everything pinned
here is policy the loop owns once, for every real backend alike:

* a retry re-enters after its backoff and ``attempts`` counts executions;
* a ``lost`` event settles only the head and re-queues the batch tail
  untouched;
* an opened breaker prunes queued batch members individually and journals
  each skip;
* strict mode raises before the journal append;
* a duplicate ``(index, attempt)`` report is accounted once;
* ``on_result`` fires after the journal append, once per finalized cell,
  never for ``completed`` cells.
"""

import pytest

from repro.core import BenchmarkSpec, Telemetry, campaign
from repro.core.batching import enumerate_cells
from repro.core.results import RunResult
from repro.core.runner import failed_result
from repro.core.telemetry import Span
from repro.errors import CellFailedError
from repro.frameworks import Mode


def _short(key):
    """``(graph, kernel)`` of a cell key — mode and framework never vary here."""
    return key[::2]


class FakeClock:
    """Stands in for the ``time`` module inside ``repro.core.campaign``."""

    def __init__(self):
        self.now = 100.0
        self.slept = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(campaign, "time", fake)
    return fake


class ScriptedBackend:
    """Runs nothing: ``script(cell, attempt)`` names each attempt's fate.

    ``"ok"`` / ``"oom"`` (transient) / ``"error"`` (deterministic) report
    a cell; ``"twice"`` reports the same ok cell two times; ``"lost"``
    loses the worker mid-cell, handing the unstarted batch tail back.
    A slot runs its whole batch within one ``events`` call; with nothing
    assigned, ``events`` waits out ``timeout`` on the fake clock.
    """

    def __init__(self, slots, clock, script=lambda cell, attempt: "ok"):
        self.slots = slots
        self.clock = clock
        self.script = script
        self.assigned = {slot: [] for slot in range(slots)}
        self.submitted = []  # (clock time, [((graph, kernel), attempt), ...])
        self.closed = None

    def open(self, graphs):
        self.opened = graphs

    def idle(self):
        return [slot for slot, batch in self.assigned.items() if not batch]

    def submit(self, slot, batch):
        self.submitted.append(
            (self.clock.now, [(_short(cell.key), attempt) for cell, attempt in batch])
        )
        self.assigned[slot] = list(batch)

    def events(self, timeout):
        busy = [batch for batch in self.assigned.values() if batch]
        if not busy:
            self.clock.now += timeout
        for batch in busy:
            while batch:
                cell, attempt = batch.pop(0)
                yield ("start", cell.index, attempt, "")
                fate = self.script(cell, attempt)
                if fate == "lost":
                    tail = list(batch)
                    batch.clear()
                    yield ("lost", cell.index, attempt, "error",
                           "worker process died mid-cell (exit code 86)", 0.5, tail)
                    continue
                if fate in ("ok", "twice"):
                    result = RunResult(
                        cell.framework, cell.kernel, cell.graph, cell.mode, [0.01]
                    )
                elif fate == "oom":
                    result = failed_result(cell, "error", MemoryError("injected"))
                else:
                    result = failed_result(cell, "error", ValueError("injected"))
                span = Span(name="cell", status=result.status)
                for _ in range(2 if fate == "twice" else 1):
                    yield ("cell", cell.index, attempt, result, [span], None)

    def close(self, clean):
        self.closed = clean


class Campaign:
    """A ``_CampaignState`` wired to one shared journal / on_result log."""

    def __init__(self, graphs, kernels, batches, completed=None, strict=False, **spec):
        self.cells = enumerate_cells(graphs, [Mode.BASELINE], kernels, ["fw"])
        self.log = []
        self.tel = Telemetry()
        campaign_ = self

        class Journal:
            def record(self, result):
                campaign_.log.append(("journal", _short(result.cell_key)))

        self.state = campaign._CampaignState(
            self.cells, BenchmarkSpec(**spec), self.tel, Journal(), strict,
            completed or {},
            lambda cell, result: self.log.append(("on_result", _short(cell.key))),
        )
        by_key = {_short(cell.key): cell for cell in self.cells}
        self.state.pending.extend(
            [(by_key[key], 0) for key in batch] for batch in batches
        )

    def drive(self, backend, progress=None):
        campaign._drive(self.state, backend, progress)
        return self.state.result_set({})


def test_retry_reenters_after_its_backoff_and_attempts_counts_executions(clock):
    run = Campaign(["g0", "g1"], ["cc"], [[("g0", "cc")], [("g1", "cc")]], retries=2)
    flaky = lambda cell, attempt: "oom" if cell.graph == "g0" and attempt < 2 else "ok"
    backend = ScriptedBackend(2, clock, flaky)
    seen = []
    first, second = run.drive(backend, progress=seen.append)
    assert first.ok and first.attempts == 3
    assert second.ok and second.attempts == 1
    # Three executions announced; each retry dispatched alone, and not
    # before its deterministic backoff (0.05s, then 0.1s) had elapsed.
    assert seen.count("baseline/g0/cc/fw") == 3
    retries = [(at, batch) for at, batch in backend.submitted if batch[0][1] > 0]
    assert [batch for _, batch in retries] == [[(("g0", "cc"), 1)], [(("g0", "cc"), 2)]]
    assert retries[0][0] >= 100.0 + 0.05 and retries[1][0] >= retries[0][0] + 0.1
    assert clock.slept == []  # two slots: the loop polls, it never blocks
    # Only the final attempt is journaled and announced.
    assert run.log.count(("journal", ("g0", "cc"))) == 1
    assert len(run.tel.spans) == 4  # one span per executed attempt


def test_single_slot_waits_out_the_backoff_so_order_stays_canonical(clock):
    run = Campaign(["g0", "g1"], ["cc"], [[("g0", "cc")], [("g1", "cc")]], retries=1)
    flaky = lambda cell, attempt: "oom" if cell.graph == "g0" and attempt == 0 else "ok"
    backend = ScriptedBackend(1, clock, flaky)
    results = run.drive(backend)
    assert [r.attempts for r in results] == [2, 1]
    assert [batch for _, batch in backend.submitted] == [
        [(("g0", "cc"), 0)], [(("g0", "cc"), 1)], [(("g1", "cc"), 0)],
    ]
    assert clock.slept == [pytest.approx(0.05)]
    assert [entry for entry in run.log if entry[0] == "journal"] == [
        ("journal", ("g0", "cc")), ("journal", ("g1", "cc")),
    ]


def test_lost_event_requeues_the_tail_untouched_and_settles_only_the_head(clock):
    batch = [("g0", "bfs"), ("g0", "cc"), ("g0", "pr")]
    run = Campaign(["g0"], ["bfs", "cc", "pr"], [batch])
    dies = lambda cell, attempt: "lost" if cell.kernel == "cc" else "ok"
    backend = ScriptedBackend(2, clock, dies)
    bfs, cc, pr = run.drive(backend)
    assert bfs.ok and pr.ok
    assert cc.status == "error" and cc.attempts == 1
    assert "worker process died" in cc.error
    # The tail went back as it was — same cell, same attempt, run once.
    assert [b for _, b in backend.submitted] == [
        [(("g0", "bfs"), 0), (("g0", "cc"), 0), (("g0", "pr"), 0)],
        [(("g0", "pr"), 0)],
    ]
    assert [e for e in run.log if e[0] == "journal"] == [
        ("journal", ("g0", "bfs")), ("journal", ("g0", "cc")), ("journal", ("g0", "pr")),
    ]
    # The lost attempt is traced from the parent's bookkeeping.
    (lost_span,) = [s for s in run.tel.spans if s.status == "error"]
    assert lost_span.error["type"] == "WorkerCrash"
    assert lost_span.wall_seconds == 0.5


def test_lost_cell_is_retried_when_the_policy_allows(clock):
    run = Campaign(["g0"], ["cc"], [[("g0", "cc")]], retries=1)
    backend = ScriptedBackend(
        2, clock, lambda cell, attempt: "lost" if attempt == 0 else "ok"
    )
    (result,) = run.drive(backend)
    assert result.ok and result.attempts == 2


def test_opened_breaker_prunes_queued_batch_members_and_journals_each_skip(clock):
    graphs = ["g0", "g1", "g2", "g3"]
    batches = [[(g, "cc"), (g, "pr")] for g in graphs]
    run = Campaign(graphs, ["cc", "pr"], batches, breaker_threshold=1)
    broken = lambda cell, attempt: "error" if cell.kernel == "cc" else "ok"
    backend = ScriptedBackend(2, clock, broken)
    results = run.drive(backend)
    by_key = {_short(r.cell_key): r for r in results}
    # g0 and g1 were in workers' hands when g0/cc opened the breaker:
    # in-flight members are never clawed back.
    assert by_key[("g0", "cc")].status == by_key[("g1", "cc")].status == "error"
    for graph in ("g2", "g3"):
        assert by_key[(graph, "cc")].status == "skipped"
        assert "circuit breaker" in by_key[(graph, "cc")].error
        assert ("journal", (graph, "cc")) in run.log
    assert all(by_key[(g, "pr")].ok for g in graphs)
    # Pruned member by member: the siblings still went out, batched as left.
    assert [b for _, b in backend.submitted][2:] == [
        [(("g2", "pr"), 0)], [(("g3", "pr"), 0)],
    ]
    skip_spans = [s for s in run.tel.spans if s.status == "skipped"]
    assert len(skip_spans) == 2 and all("skip_reason" in s.attributes for s in skip_spans)


def test_strict_raises_before_the_journal_append(clock):
    run = Campaign(
        ["g0"], ["bfs", "cc", "pr"], [[("g0", "bfs"), ("g0", "cc"), ("g0", "pr")]],
        strict=True,
    )
    broken = lambda cell, attempt: "error" if cell.kernel == "cc" else "ok"
    with pytest.raises(CellFailedError, match="baseline/g0/cc/fw"):
        run.drive(ScriptedBackend(2, clock, broken))
    # bfs committed; the failing cell neither journaled nor announced.
    assert run.log == [("journal", ("g0", "bfs")), ("on_result", ("g0", "bfs"))]


def test_strict_reraises_the_live_exception_when_the_backend_has_it(clock):
    run = Campaign(["g0"], ["cc"], [[("g0", "cc")]], strict=True)
    boom = RuntimeError("the original")

    class HoldsException(ScriptedBackend):
        def events(self, timeout):
            for event in super().events(timeout):
                yield (*event[:5], boom) if event[0] == "cell" else event

    with pytest.raises(RuntimeError) as excinfo:
        run.drive(HoldsException(1, clock, lambda cell, attempt: "error"))
    assert excinfo.value is boom and run.log == []


def test_duplicate_report_is_accounted_once(clock):
    run = Campaign(["g0", "g1"], ["cc"], [[("g0", "cc")], [("g1", "cc")]])
    backend = ScriptedBackend(
        2, clock, lambda cell, attempt: "twice" if cell.graph == "g0" else "ok"
    )
    results = run.drive(backend)
    assert all(r.ok and r.attempts == 1 for r in results)
    assert run.log.count(("journal", ("g0", "cc"))) == 1
    assert run.log.count(("on_result", ("g0", "cc"))) == 1
    assert len(run.tel.spans) == 2  # the duplicate's span is dropped too


def test_on_result_follows_each_journal_append_and_skips_completed_cells(clock):
    held = RunResult("fw", "bfs", "g0", Mode.BASELINE, [0.01])
    run = Campaign(
        ["g0"], ["bfs", "cc", "pr"], [[("g0", "cc")], [("g0", "pr")]],
        completed={held.cell_key: held},
    )
    backend = ScriptedBackend(2, clock)
    seen = []
    results = run.drive(backend, progress=seen.append)
    assert list(results)[0] is held
    # Durable first, then announced — pairwise, once per finalized cell.
    assert run.log == [
        ("journal", ("g0", "cc")), ("on_result", ("g0", "cc")),
        ("journal", ("g0", "pr")), ("on_result", ("g0", "pr")),
    ]
    # The pre-filled cell was never dispatched, announced or started.
    assert all(key != ("g0", "bfs") for _, batch in backend.submitted for key, _ in batch)
    assert sorted(seen) == ["baseline/g0/cc/fw", "baseline/g0/pr/fw"]
