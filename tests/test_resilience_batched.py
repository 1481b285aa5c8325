"""Resilience semantics under batched dispatch.

Batching changes the failure surface: a worker now holds several cells
at once, so every resilience guarantee must be re-proven per *batch
member*, not per dispatch.  Tier-1 guarantees pinned here:

* a worker crash mid-batch loses only the in-flight cell — completed
  members keep their results, unstarted members are re-dispatched and
  complete normally;
* with retries enabled, the lost member is re-executed on a replacement
  worker while its batch siblings are not run twice;
* a circuit breaker opening prunes its combo's cells out of *queued*
  batches individually — sibling cells of other combos in the same
  batch still execute;
* ``--resume`` skips completed batch members: a journal written by an
  interrupted batched campaign pre-fills exactly the settled cells, and
  the resumed run re-executes only the rest (resuming the same journal
  under every *other* backend is
  ``test_executor_matrix.py::test_journal_resumes_on_any_backend``).
"""

import pytest

from repro.errors import CellFailedError
from repro.frameworks import Mode
from repro.gapbs import GAPReference
from repro.faults import CRASH_EXIT_CODE, Fault

from .conftest import run_on


def _campaign(spec, kernels, graphs=("kron",), **kw):
    # "process-batched" pins batch_size=3; a test's own batch_size wins.
    return run_on(
        "process-batched",
        [GAPReference()],
        list(graphs),
        spec,
        kernels=list(kernels),
        modes=[Mode.BASELINE],
        **kw,
    )


def test_worker_crash_mid_batch_loses_only_the_in_flight_cell():
    # One batch of three cells: [bfs, cc, pr].  The crash fires on cc, so
    # bfs has already been reported (synchronously) and pr is still
    # unstarted in the dead worker's batch tail.
    results = _campaign(
        dict(batch_size=3), ("bfs", "cc", "pr"), faults=(Fault("crash", kernel="cc"),)
    )
    by_kernel = {r.kernel: r for r in results}
    assert by_kernel["bfs"].ok and by_kernel["bfs"].attempts == 1
    crashed = by_kernel["cc"]
    assert crashed.status == "error" and crashed.attempts == 1
    assert f"exit code {CRASH_EXIT_CODE}" in crashed.error
    # The tail member was re-dispatched, not lost with the worker.
    assert by_kernel["pr"].ok and by_kernel["pr"].attempts == 1


def test_crashed_batch_member_is_retried_without_rerunning_siblings():
    results = _campaign(
        dict(batch_size=3, retries=1), ("bfs", "cc", "pr"),
        faults=(Fault("crash", kernel="cc"),),
    )
    by_kernel = {r.kernel: r for r in results}
    assert all(r.ok for r in results)
    assert by_kernel["cc"].attempts == 2  # lost once, re-run once
    assert by_kernel["bfs"].attempts == 1
    assert by_kernel["pr"].attempts == 1


def test_breaker_prunes_combo_cells_from_queued_batches_individually():
    # Canonical order over 3 graphs x (cc, pr) with batch_size=2 gives
    # batches [kron/cc, kron/pr], [road/cc, road/pr], [urand/cc, urand/pr].
    # Two workers take the first two batches; the third is still queued
    # when kron/cc's failure opens the cc breaker.  urand/cc must be
    # pruned out of the queued batch as 'skipped' while its sibling
    # urand/pr still runs.
    results = _campaign(
        dict(batch_size=2, breaker_threshold=1), ("cc", "pr"),
        graphs=("kron", "road", "urand"), faults=(Fault("error", kernel="cc"),),
    )
    by_key = {(r.graph, r.kernel): r for r in results}
    assert len(results) == 6
    assert by_key[("kron", "cc")].status == "error"
    # road/cc was already in a worker's hands when the breaker opened:
    # in-flight batch members are never clawed back, they run and fail.
    assert by_key[("road", "cc")].status == "error"
    skipped = by_key[("urand", "cc")]
    assert skipped.status == "skipped" and "circuit breaker" in skipped.error
    # Sibling cells of the pruned combo survived in every batch.
    assert all(by_key[(g, "pr")].ok for g in ("kron", "road", "urand"))
    assert results.meta["resilience"]["skipped_cells"] == 1


def test_resume_skips_completed_batch_members(tmp_path):
    journal = tmp_path / "campaign.jsonl"
    # A single batch [bfs, cc, pr] under strict mode: bfs settles into the
    # journal, cc's injected failure aborts the campaign, pr never settles.
    with pytest.raises(CellFailedError):
        _campaign(
            dict(batch_size=3), ("bfs", "cc", "pr"),
            faults=(Fault("error", kernel="cc"),), strict=True, journal=str(journal),
        )
    journaled = journal.read_bytes().splitlines()
    assert len(journaled) == 2  # header + the one settled batch member

    # Resume without the fault.  The bfs poison fault proves the resumed
    # run trusts the journal: if bfs were re-executed it would fail.
    results = _campaign(
        dict(batch_size=3),
        ("bfs", "cc", "pr"),
        faults=(Fault("error", kernel="bfs"),),
        journal=str(journal),
        resume=True,
    )
    by_kernel = {r.kernel: r for r in results}
    assert len(results) == 3
    assert by_kernel["bfs"].ok  # restored from the journal, not re-run
    assert by_kernel["cc"].ok and by_kernel["pr"].ok
    assert results.meta["resilience"]["resumed_cells"] == 1
