"""Resilience layer tests: journal, retry, breaker, faults, CLI guards.

Tier-1 guarantees pinned here:

* the checkpoint journal round-trips completed cells exactly, discards a
  torn trailing line, and refuses a journal from a different campaign;
* failure classification retries only transient errors — verification
  mismatches, ``ValueError``, and timeouts are never retried;
* backoff is jitter-free exponential and fully deterministic;
* the circuit breaker opens after K *consecutive* hard failures of one
  (framework, kernel) combo and converts its remaining cells to
  structured ``skipped`` results;
* the serial runner survives every cell fault kind with the right
  status (the fault plan itself is ``test_faults.py``);
* the CLI rejects out-of-range ``--jobs`` / ``--retries`` / ``--timeout``
  with clear argparse errors.
"""

import io
import json

import pytest

from repro.__main__ import main
from repro.core import BenchmarkSpec, Telemetry, run_suite
from repro.core.results import RunResult
from repro.core.telemetry import JsonlSink
from repro.errors import JournalError
from repro.faults import Fault, fired, installed
from repro.frameworks import KERNELS, Mode
from repro.gapbs import GAPReference
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.journal import CheckpointJournal, campaign_fingerprint
from repro.resilience.retry import (
    CLASS_DETERMINISTIC,
    CLASS_TRANSIENT,
    RetryPolicy,
    classify_failure,
)

ONE_TRIAL = {k: 1 for k in KERNELS}


def _spec(**overrides):
    defaults = dict(scale=8, trials=ONE_TRIAL)
    defaults.update(overrides)
    return BenchmarkSpec(**defaults)


def _result(graph="kron", kernel="bfs", status="ok", **overrides):
    fields = dict(
        framework="gap",
        kernel=kernel,
        graph=graph,
        mode=Mode.BASELINE,
        trial_seconds=[0.25],
        verified=status == "ok",
        status=status,
    )
    fields.update(overrides)
    return RunResult(**fields)


def _fingerprint(spec):
    return campaign_fingerprint(spec, ["kron"], ["bfs", "cc"], ["baseline"], ["gap"])


# -- checkpoint journal ------------------------------------------------------


def test_journal_round_trips_completed_cells(tmp_path):
    spec = _spec()
    path = tmp_path / "campaign.jsonl"
    with CheckpointJournal.create(path, _fingerprint(spec)) as journal:
        journal.record(_result(kernel="bfs"))
        journal.record(_result(kernel="cc", status="error", error="ValueError: x"))

    resumed, completed = CheckpointJournal.resume(path, _fingerprint(spec))
    resumed.close()
    assert set(completed) == {
        ("kron", "baseline", "bfs", "gap"),
        ("kron", "baseline", "cc", "gap"),
    }
    restored = completed[("kron", "baseline", "bfs", "gap")]
    assert restored.as_dict() == _result(kernel="bfs").as_dict()
    # Failed cells resume as-recorded: they finished executing.
    assert completed[("kron", "baseline", "cc", "gap")].status == "error"


def test_journal_discards_torn_trailing_line(tmp_path):
    spec = _spec()
    path = tmp_path / "campaign.jsonl"
    with CheckpointJournal.create(path, _fingerprint(spec)) as journal:
        journal.record(_result(kernel="bfs"))
    with open(path, "ab") as stream:
        stream.write(b'{"result": {"framework": "gap", "ker')  # crash mid-append

    resumed, completed = CheckpointJournal.resume(path, _fingerprint(spec))
    resumed.close()
    assert set(completed) == {("kron", "baseline", "bfs", "gap")}


def test_journal_rejects_corrupt_interior_line(tmp_path):
    spec = _spec()
    path = tmp_path / "campaign.jsonl"
    with CheckpointJournal.create(path, _fingerprint(spec)) as journal:
        journal.record(_result())
        # A second record keeps the corrupted line *interior*: a later
        # append succeeded after it, so it is damage, not a torn tail.
        journal.record(_result(kernel="cc"))
    raw = path.read_bytes().split(b"\n")
    raw[1] = b"{not json"  # a *terminated* corrupt line is real damage
    path.write_bytes(b"\n".join(raw))

    with pytest.raises(JournalError, match="corrupt"):
        CheckpointJournal.resume(path, _fingerprint(spec))


def test_journal_discards_checksum_failed_tail(tmp_path):
    spec = _spec()
    path = tmp_path / "campaign.jsonl"
    with CheckpointJournal.create(path, _fingerprint(spec)) as journal:
        journal.record(_result())
        journal.record(_result(kernel="cc"))
    raw = path.read_bytes().rstrip(b"\n").split(b"\n")
    # Flip payload bytes inside the *final* line: flushed but failing its
    # checksum means the append never became durable — resume treats it
    # exactly like a torn tail and re-runs that cell.
    raw[-1] = raw[-1].replace(b'"cc"', b'"xx"')
    path.write_bytes(b"\n".join(raw) + b"\n")

    resumed, completed = CheckpointJournal.resume(path, _fingerprint(spec))
    resumed.close()
    assert set(completed) == {("kron", "baseline", "bfs", "gap")}


def test_journal_rejects_different_campaign(tmp_path):
    path = tmp_path / "campaign.jsonl"
    CheckpointJournal.create(path, _fingerprint(_spec())).close()
    other = campaign_fingerprint(
        _spec(scale=9), ["kron"], ["bfs"], ["baseline"], ["gap"]
    )
    with pytest.raises(JournalError) as excinfo:
        CheckpointJournal.resume(path, other)
    # The error names every mismatched field so the operator can decide.
    assert "spec" in str(excinfo.value) and "kernels" in str(excinfo.value)


def test_journal_resume_of_missing_file_starts_fresh(tmp_path):
    path = tmp_path / "new.jsonl"
    journal, completed = CheckpointJournal.resume(path, _fingerprint(_spec()))
    journal.close()
    assert completed == {} and path.exists()


def test_journal_record_after_close_raises(tmp_path):
    journal = CheckpointJournal.create(tmp_path / "j.jsonl", _fingerprint(_spec()))
    journal.close()
    with pytest.raises(JournalError, match="closed"):
        journal.record(_result())


# -- failure classification and retry policy ---------------------------------


@pytest.mark.parametrize(
    "status, error, expected",
    [
        ("error", "MemoryError: out of memory", CLASS_TRANSIENT),
        ("error", "worker process died mid-cell (exit code 86)", CLASS_TRANSIENT),
        ("error", "GraphFormatError: corrupt cache artifact", CLASS_TRANSIENT),
        ("error", "OSError: shared memory attach failed", CLASS_TRANSIENT),
        ("error", "ValueError: bad delta", CLASS_DETERMINISTIC),
        ("error", "VerificationError: bfs mismatch", CLASS_DETERMINISTIC),
        ("error", "SomethingNovel: unexplained", CLASS_DETERMINISTIC),
        ("timeout", "trial exceeded 1.0s", CLASS_DETERMINISTIC),
        ("skipped", "breaker open", CLASS_DETERMINISTIC),
    ],
)
def test_classify_failure(status, error, expected):
    assert classify_failure(status, error) == expected


def test_backoff_schedule_is_deterministic_exponential():
    policy = RetryPolicy(retries=5, backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5)
    assert [policy.backoff_seconds(a) for a in range(5)] == [
        0.1,
        0.2,
        0.4,
        0.5,  # capped
        0.5,
    ]


def test_retry_policy_sleeps_via_injected_sleeper():
    slept = []
    policy = RetryPolicy(retries=2, backoff_base=0.05, sleeper=slept.append)
    policy.sleep(0)
    policy.sleep(1)
    assert slept == [0.05, 0.1]


def test_retry_policy_budget_and_classes():
    policy = RetryPolicy(retries=2)
    transient = "MemoryError: boom"
    assert policy.should_retry("error", transient, attempt=0)
    assert policy.should_retry("error", transient, attempt=1)
    assert not policy.should_retry("error", transient, attempt=2)  # budget spent
    assert not policy.should_retry("error", "ValueError: no", attempt=0)
    assert not policy.should_retry("timeout", "over budget", attempt=0)
    assert not RetryPolicy(retries=0).should_retry("error", transient, attempt=0)


# -- circuit breaker ---------------------------------------------------------


def test_breaker_opens_after_consecutive_failures_only():
    breaker = CircuitBreaker(threshold=2)
    assert not breaker.record("gap", "tc", ok=False)
    assert breaker.record("gap", "tc", ok=False)  # second consecutive: opens
    assert breaker.is_open("gap", "tc")
    assert not breaker.is_open("gap", "bfs")  # scoped per combo
    assert breaker.open_combos() == [("gap", "tc")]
    assert "gap/tc" in breaker.reason("gap", "tc")


def test_breaker_success_resets_count():
    breaker = CircuitBreaker(threshold=2)
    breaker.record("gap", "cc", ok=False)
    breaker.record("gap", "cc", ok=True)  # flake, not a broken combo
    breaker.record("gap", "cc", ok=False)
    assert not breaker.is_open("gap", "cc")


def test_breaker_disabled_at_zero_threshold():
    breaker = CircuitBreaker(threshold=0)
    for _ in range(10):
        assert not breaker.record("gap", "tc", ok=False)
    assert not breaker.is_open("gap", "tc")


# -- serial campaign integration --------------------------------------------


def _serial_campaign(spec, kernels=("bfs",), graphs=("kron",), telemetry=None, **kw):
    return run_suite(
        [GAPReference()],
        list(graphs),
        kernels=list(kernels),
        modes=[Mode.BASELINE],
        spec=spec,
        telemetry=telemetry,
        **kw,
    )


def test_serial_oom_fault_is_retried_to_success():
    telemetry = Telemetry()
    with installed(Fault("oom", kernel="bfs", times=2)):
        results = _serial_campaign(_spec(retries=2), telemetry=telemetry)
    (result,) = results
    assert result.ok and result.attempts == 3
    # One span per executed attempt, the last one ok.
    cell_spans = [s for s in telemetry.spans if s.attributes["kernel"] == "bfs"]
    assert [s.status for s in cell_spans] == ["error", "error", "ok"]
    assert [s.attributes.get("attempt") for s in cell_spans] == [None, 1, 2]


def test_serial_deterministic_error_is_never_retried():
    with installed(Fault("error", kernel="bfs", times=None)):
        (result,) = _serial_campaign(_spec(retries=3))
    assert result.status == "error" and result.attempts == 1
    assert "ValueError" in result.error


def test_serial_wrong_result_fails_verification_without_retry():
    with installed(Fault("wrong-result", kernel="bfs", times=None)):
        (result,) = _serial_campaign(_spec(retries=3))
    assert result.status == "error" and not result.verified
    assert result.attempts == 1  # deterministic: retrying would mask a bug


def test_serial_hang_times_out_and_is_not_retried():
    with installed(Fault("hang", kernel="bfs", times=None)):
        (result,) = _serial_campaign(_spec(trial_timeout=0.3, retries=3))
    assert result.status == "timeout" and result.attempts == 1


def test_serial_cache_corruption_degrades_to_regeneration(tmp_path):
    from repro.graphs import GraphCache

    cache = GraphCache(tmp_path)
    # The artifact is damaged on its way to disk; its sidecar is not.
    with installed(Fault("bit-flip", path=".npz")):
        warm = _serial_campaign(_spec(), cache=cache)
        assert [f["kind"] for f in fired()] == ["bit-flip"]
    assert all(r.ok for r in warm)
    (result,) = _serial_campaign(_spec(), cache=cache)
    assert result.ok  # corruption surfaced as a miss, never a wrong result
    assert cache.corrupt_events[-1]["reason"] == "checksum-mismatch"


def test_serial_breaker_skips_remaining_combo_cells():
    telemetry = Telemetry()
    with installed(Fault("error", kernel="cc", graph="kron")):
        results = _serial_campaign(
            _spec(breaker_threshold=1), kernels=("cc", "bfs"), graphs=("kron", "road"),
            telemetry=telemetry,
        )
    by_key = {r.cell_key: r for r in results}
    assert by_key[("kron", "baseline", "cc", "gap")].status == "error"
    skipped = by_key[("road", "baseline", "cc", "gap")]
    assert skipped.status == "skipped" and "circuit breaker" in skipped.error
    assert all(by_key[k].ok for k in by_key if k[2] == "bfs")  # combo-scoped
    assert results.skipped() == [skipped]
    assert results.meta["resilience"]["skipped_cells"] == 1
    skip_spans = [s for s in telemetry.spans if s.status == "skipped"]
    assert len(skip_spans) == 1 and "skip_reason" in skip_spans[0].attributes


def test_serial_journal_resume_skips_completed_cells(tmp_path):
    journal = tmp_path / "campaign.jsonl"
    spec = _spec()
    first = _serial_campaign(spec, kernels=("bfs", "cc"), journal=str(journal))
    assert len(first) == 2 and first.meta["resilience"]["resumed_cells"] == 0

    executed = []
    resumed = _serial_campaign(
        spec,
        kernels=("bfs", "cc"),
        journal=str(journal),
        resume=True,
        progress=executed.append,
    )
    assert resumed.meta["resilience"]["resumed_cells"] == 2
    assert executed == []  # nothing re-ran, not even a progress tick
    assert [r.as_dict() for r in resumed] == [r.as_dict() for r in first]
    # Resume did not re-journal the replayed cells.
    lines = journal.read_bytes().splitlines()
    assert len(lines) == 3  # header + two cells, exactly once each


def test_run_results_carry_resilience_metadata(tmp_path):
    journal = tmp_path / "j.jsonl"
    spec = _spec(retries=2, breaker_threshold=3)
    results = _serial_campaign(spec, journal=str(journal))
    meta = results.meta["resilience"]
    assert meta["retries"] == 2
    assert meta["breaker_threshold"] == 3
    assert meta["journal"] == str(journal)


def test_archive_manifest_records_resilience_lineage(tmp_path):
    from repro.store import RunArchive

    journal = tmp_path / "j.jsonl"
    results = _serial_campaign(_spec(retries=1), journal=str(journal))
    record = RunArchive(tmp_path / "archive").archive_run(results, spec=_spec())
    assert record.manifest["resilience"]["retries"] == 1
    assert record.manifest["resilience"]["journal"] == str(journal)


# -- telemetry sink durability ----------------------------------------------


def test_jsonl_sink_flushes_every_record():
    class CountingStream(io.StringIO):
        flushes = 0

        def flush(self):
            CountingStream.flushes += 1
            return super().flush()

    stream = CountingStream()
    sink = JsonlSink(stream)
    sink.write({"a": 1})
    after_first = CountingStream.flushes
    assert after_first >= 1  # durable before the next record starts
    sink.write({"b": 2})
    assert CountingStream.flushes > after_first
    assert [json.loads(line) for line in stream.getvalue().splitlines()] == [
        {"a": 1},
        {"b": 2},
    ]


# -- CLI argument validation -------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--jobs", "0"],
        ["run", "--jobs", "-3"],
        ["run", "--jobs", "two"],
        ["run", "--retries", "-1"],
        ["run", "--breaker-threshold", "-1"],
        ["run", "--timeout", "0"],
        ["run", "--timeout", "-2.5"],
        ["run", "--timeout", "inf"],
    ],
)
def test_cli_rejects_out_of_range_arguments(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2  # argparse usage error
    err = capsys.readouterr().err
    assert "must be" in err or "expected" in err


def test_cli_resume_requires_journal(capsys):
    with pytest.raises(SystemExit, match="--resume requires --journal"):
        main(["run", "--resume"])
