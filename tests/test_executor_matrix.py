"""Backend equivalence matrix: every execution backend, every fault class.

The members of ``conftest.BACKENDS`` — inline (``serial``), per-cell
process pool, batched process pool, and thread pool — run one campaign
loop and must be *observationally identical*:
same cells in the same canonical order, same statuses, same verification
outcomes, same machine-independent work counters.  Timings and error
message texts are the only permitted differences (a crash surfaces as a
worker death in process modes and as an in-process exception elsewhere).

The campaign mixes fast cells, a deterministic verification failure, an
injected crash-class fault, and a hung cell, so the matrix covers every
(backend x fault) combination a campaign can encounter:

* fast cells         -> ``ok`` everywhere;
* broken kernel      -> ``error`` (verification) everywhere;
* crash-class fault  -> ``error`` everywhere (``crash`` kills the worker
  in process modes; serial/threads substitute the ``error`` fault, since
  ``os._exit`` there would take the whole campaign down — which is
  exactly the isolation difference the substitution documents);
* hung cell          -> ``timeout`` everywhere (SIGALRM interrupts it
  serially and in workers; the thread pool detects the overrun post-hoc).

The second half pins what the loop promises its callers on every
backend alike: the ``progress`` rule, ``on_result`` ordering,
``completed`` pre-fill, and journals that resume under any backend.
"""

import dataclasses
import time

import pytest

from repro.core import Telemetry
from repro.errors import CellFailedError, TrialTimeoutError, VerificationError
from repro.frameworks import Mode, RunContext
from repro.gapbs import GAPReference
from repro.faults import Fault

from .conftest import BACKENDS, PROCESS_BACKENDS, run_on


class BrokenTC(GAPReference):
    """Deterministically fails verification (always one triangle short)."""

    attributes = dataclasses.replace(GAPReference.attributes, name="broken-tc")

    def triangle_count(self, graph, ctx=RunContext()):
        return super().triangle_count(graph, ctx) - 1


class SlowCC(GAPReference):
    """A CC kernel that overruns its trial budget, then finishes.

    The hang is *bounded* so the matrix stays meaningful in every mode:
    SIGALRM interrupts the sleep mid-flight (serial and process workers),
    while the thread pool — where a thread cannot be interrupted — runs
    it to completion and flags the overrun post-hoc.  Either way the cell
    must come out as a ``timeout``.
    """

    attributes = dataclasses.replace(GAPReference.attributes, name="slow-cc")

    def connected_components(self, graph, ctx=RunContext()):
        deadline = time.monotonic() + 1.2
        while time.monotonic() < deadline:
            time.sleep(0.02)
        return super().connected_components(graph, ctx)


def _normalized(results):
    """Everything that must be identical across modes (no timings/texts)."""
    return [
        (
            r.cell_key,
            r.status,
            r.verified,
            r.edges_examined,
            r.rounds,
            r.iterations,
        )
        for r in results
    ]


def _run(mode_name, frameworks, kernels, spec_extra, graphs=("kron",), **kwargs):
    return run_on(
        mode_name,
        frameworks,
        list(graphs),
        spec_extra,
        kernels=kernels,
        modes=[Mode.BASELINE],
        **kwargs,
    )


def _fault_campaign(mode_name, telemetry=None):
    """Fast cells + verification failure + crash-class fault, per mode."""
    kind = "crash" if mode_name in PROCESS_BACKENDS else "error"
    return _run(
        mode_name,
        [GAPReference(), BrokenTC()],
        ["bfs", "cc", "tc"],
        {},
        faults=(Fault(kind, framework="gap", kernel="cc"),),
        telemetry=telemetry,
    )


def _timeout_campaign(mode_name, telemetry=None):
    """Fast cells + a hung cell under a hard trial deadline, per mode."""
    return _run(
        mode_name,
        [GAPReference(), SlowCC()],
        ["bfs", "cc"],
        {"trial_timeout": 0.3},
        telemetry=telemetry,
    )


@pytest.fixture(scope="module")
def fault_matrix():
    campaigns = {}
    for mode_name in BACKENDS:
        tel = Telemetry()
        campaigns[mode_name] = (_fault_campaign(mode_name, tel), tel)
    return campaigns


@pytest.fixture(scope="module")
def timeout_matrix():
    campaigns = {}
    for mode_name in BACKENDS:
        tel = Telemetry()
        campaigns[mode_name] = (_timeout_campaign(mode_name, tel), tel)
    return campaigns


def test_fault_campaign_statuses_are_the_expected_mix(fault_matrix):
    results, _ = fault_matrix["serial"]
    by_key = {r.cell_key: r for r in results}
    assert len(results) == 6
    assert by_key[("kron", "baseline", "cc", "gap")].status == "error"
    broken = by_key[("kron", "baseline", "tc", "broken-tc")]
    assert broken.status == "error"
    assert VerificationError.__name__ in broken.error
    ok_cells = [r for r in results if r.ok]
    assert len(ok_cells) == 4  # the fast cells all survived the faults


@pytest.mark.parametrize("mode_name", [m for m in BACKENDS if m != "serial"])
def test_fault_campaign_matches_serial(fault_matrix, mode_name):
    serial, _ = fault_matrix["serial"]
    other, _ = fault_matrix[mode_name]
    assert _normalized(other) == _normalized(serial)


@pytest.mark.parametrize("mode_name", list(BACKENDS))
def test_fault_campaign_traces_one_span_per_cell(fault_matrix, mode_name):
    results, tel = fault_matrix[mode_name]
    assert len(tel.spans) == len(results)
    assert sorted(s.status for s in tel.spans) == sorted(
        r.status for r in results
    )


def test_timeout_campaign_statuses_are_the_expected_mix(timeout_matrix):
    results, _ = timeout_matrix["serial"]
    by_key = {r.cell_key: r for r in results}
    assert len(results) == 4
    hung = by_key[("kron", "baseline", "cc", "slow-cc")]
    assert hung.status == "timeout"
    assert hung.trial_seconds == [] and not hung.verified
    assert sum(r.ok for r in results) == 3


@pytest.mark.parametrize("mode_name", [m for m in BACKENDS if m != "serial"])
def test_timeout_campaign_matches_serial(timeout_matrix, mode_name):
    serial, _ = timeout_matrix["serial"]
    other, _ = timeout_matrix[mode_name]
    assert _normalized(other) == _normalized(serial)


@pytest.mark.parametrize("mode_name", list(BACKENDS))
def test_timeout_campaign_traces_one_span_per_cell(timeout_matrix, mode_name):
    results, tel = timeout_matrix[mode_name]
    assert len(tel.spans) == len(results)
    timeout_spans = [s for s in tel.spans if s.status == "timeout"]
    assert len(timeout_spans) == 1
    assert timeout_spans[0].attributes["framework"] == "slow-cc"


def test_campaign_meta_records_the_pool_flavor():
    results = _run("threads", [GAPReference()], ["bfs"], {})
    assert results.meta["pool"] == "threads"
    assert results.meta["spec"]["pool"] == "threads"
    results = _run("process-batched", [GAPReference()], ["bfs"], {})
    assert results.meta["pool"] == "process"
    assert results.meta["spec"]["batch_size"] == 3


# -- what the loop promises its callers, on every backend --------------------


def _label(result):
    return f"{result.mode.value}/{result.graph}/{result.kernel}/{result.framework}"


def test_progress_fires_once_per_executed_attempt_never_for_skips(backend):
    seen = []
    results = _run(
        backend,
        [GAPReference()],
        ["bfs", "cc"],
        {"breaker_threshold": 1},
        faults=(Fault("error", framework="gap", kernel="cc"),),
        # Four graphs: even two in-flight three-cell batches leave a queued
        # one for the opened breaker to prune.
        graphs=("kron", "road", "urand", "twitter"),
        progress=seen.append,
    )
    assert len(results) == 8 and results.skipped()
    # Each executed cell announced exactly once; breaker skips never.
    assert sorted(seen) == sorted(
        _label(r) for r in results if r.status != "skipped"
    )


def test_progress_fires_again_for_a_retry(backend):
    seen = []
    (result,) = _run(
        backend,
        [GAPReference()],
        ["bfs"],
        {"retries": 1},
        faults=(Fault("oom", kernel="bfs"),),
        progress=seen.append,
    )
    assert result.ok and result.attempts == 2
    assert seen == [_label(result)] * 2


def test_on_result_follows_the_journal_append(backend, tmp_path):
    journal = tmp_path / "campaign.jsonl"
    calls = []

    def on_result(cell, result):
        # Header + one line per finalized cell, this one included.
        durable = len(journal.read_bytes().splitlines()) - 1
        calls.append((cell.key, result.cell_key, durable))

    results = _run(
        backend,
        [GAPReference()],
        ["bfs", "cc", "pr"],
        {"breaker_threshold": 1},
        faults=(Fault("error", kernel="cc"),),
        graphs=("kron", "road"),
        journal=str(journal),
        on_result=on_result,
    )
    # Once per finalized cell — breaker skips included — and never early.
    assert sorted(key for key, _, _ in calls) == sorted(r.cell_key for r in results)
    assert all(cell_key == result_key for cell_key, result_key, _ in calls)
    assert [durable for _, _, durable in calls] == list(range(1, len(results) + 1))


def test_completed_cells_are_prefilled_not_executed(backend, tmp_path):
    kernels = ["bfs", "cc", "pr"]
    first = _run(backend, [GAPReference()], kernels, {})
    held = {r.cell_key: r for r in first if r.kernel != "pr"}
    journal = tmp_path / "campaign.jsonl"
    seen, announced = [], []
    # The poison faults prove the held cells are trusted, not re-run.
    results = _run(
        backend,
        [GAPReference()],
        kernels,
        {},
        faults=(Fault("error", kernel="bfs"), Fault("error", kernel="cc")),
        completed=held,
        journal=str(journal),
        progress=seen.append,
        on_result=lambda cell, result: announced.append(cell.key),
    )
    assert [r.cell_key for r in results] == [r.cell_key for r in first]
    assert all(r.ok for r in results)
    assert all(r is held[r.cell_key] for r in results if r.kernel != "pr")
    # Only the missing cell ran, was journaled, and was announced.
    assert seen == ["baseline/kron/pr/gap"]
    assert announced == [("kron", "baseline", "pr", "gap")]
    assert len(journal.read_bytes().splitlines()) == 2
    assert results.meta["resilience"]["resumed_cells"] == 2


def test_fully_prefilled_campaign_builds_nothing(backend, monkeypatch):
    from repro.core import campaign

    first = _run(backend, [GAPReference()], ["bfs"], {})

    def explode(*args, **kwargs):
        raise AssertionError("a fully pre-filled graph was built")

    monkeypatch.setattr(campaign, "build_case", explode)
    again = _run(
        backend, [GAPReference()], ["bfs"], {}, completed={r.cell_key: r for r in first}
    )
    assert [r.as_dict() for r in again] == [r.as_dict() for r in first]


@pytest.mark.parametrize("writer", ["serial", "process-batched"])
def test_journal_resumes_on_any_backend(writer, backend, tmp_path):
    """Execution topology is not campaign identity: a journal written by
    a strict-aborted campaign on one backend resumes on every other."""
    journal = tmp_path / "campaign.jsonl"
    kernels = ["bfs", "cc", "pr"]
    with pytest.raises((ValueError, CellFailedError)):
        _run(
            writer, [GAPReference()], kernels, {},
            faults=(Fault("error", kernel="cc"),), strict=True, journal=str(journal),
        )
    assert len(journal.read_bytes().splitlines()) == 2  # header + bfs

    seen = []
    results = _run(
        backend,
        [GAPReference()],
        kernels,
        {},
        # Poison: if bfs were re-executed instead of restored, it would fail.
        faults=(Fault("error", kernel="bfs"),),
        journal=str(journal),
        resume=True,
        progress=seen.append,
    )
    assert len(results) == 3 and all(r.ok for r in results)
    assert results.meta["resilience"]["resumed_cells"] == 1
    assert sorted(seen) == ["baseline/kron/cc/gap", "baseline/kron/pr/gap"]
    assert len(journal.read_bytes().splitlines()) == 4  # nothing re-journaled


def test_serial_journal_is_in_canonical_cell_order(tmp_path):
    """One slot keeps canonical order even across a retry's backoff."""
    from repro.resilience.journal import read_journal

    journal = tmp_path / "campaign.jsonl"
    seen = []
    results = _run(
        "serial",
        [GAPReference()],
        ["bfs", "cc"],
        {"retries": 1},
        faults=(Fault("oom", kernel="bfs", graph="kron"),),
        graphs=("kron", "road"),
        journal=str(journal),
        progress=seen.append,
    )
    _, journaled = read_journal(journal)
    assert list(journaled) == [r.cell_key for r in results]
    # The retry ran before the next cell started.
    assert seen[:2] == ["baseline/kron/bfs/gap"] * 2


def test_strict_raises_the_live_exception_only_inline(backend):
    """Inline still holds the exception object; workers return only text."""
    expected = ValueError if backend == "serial" else CellFailedError
    with pytest.raises(expected) as excinfo:
        _run(
            backend, [GAPReference()], ["bfs"], {},
            faults=(Fault("error", kernel="bfs"),), strict=True,
        )
    if backend != "serial":
        assert "baseline/kron/bfs/gap" in str(excinfo.value)


def test_strict_timeout_names_the_cell_on_pools(backend):
    with pytest.raises(TrialTimeoutError) as excinfo:
        _run(
            backend, [SlowCC()], ["cc"], {"trial_timeout": 0.3}, strict=True
        )
    if backend != "serial":
        assert "baseline/kron/cc/slow-cc" in str(excinfo.value)
