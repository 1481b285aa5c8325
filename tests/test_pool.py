"""Warm worker pool: reuse across campaigns, respawn, stale-message hygiene.

Tier-1 guarantees pinned here:

* a :class:`WorkerPool` handle runs *multiple* campaigns on the same
  worker processes — the PIDs do not change between campaigns, which is
  the whole point of warm pools (spawn cost paid once);
* an externally owned pool survives a campaign that aborts mid-flight,
  and the next campaign on it produces clean results (stale messages
  from the aborted campaign are filtered by sequence stamp);
* ``reset()`` replaces every worker;
* a dead worker is replaced at the next ``begin_campaign``.
"""

import pytest

from repro.core import BenchmarkSpec, Telemetry, WorkerPool, run_suite
from repro.frameworks import KERNELS, Mode
from repro.gapbs import GAPReference

SPEC = BenchmarkSpec(scale=8, trials={k: 1 for k in KERNELS})


def _campaign(pool, kernels=("bfs",), telemetry=None, **kw):
    return run_suite(
        [GAPReference()],
        ["kron"],
        kernels=list(kernels),
        modes=[Mode.BASELINE],
        spec=SPEC,
        telemetry=telemetry,
        pool=pool,
        **kw,
    )


def test_pool_is_reused_across_campaigns():
    with WorkerPool(2) as pool:
        pids_before = pool.pids()
        assert len(pids_before) == 2
        first = _campaign(pool, kernels=("bfs", "cc"))
        second = _campaign(pool, kernels=("pr", "tc"))
        assert all(r.ok for r in first) and len(first) == 2
        assert all(r.ok for r in second) and len(second) == 2
        # Same processes served both campaigns: warm, not respawned.
        assert pool.pids() == pids_before


def test_pool_survives_aborted_campaign():
    with WorkerPool(2) as pool:
        def abort(label):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            _campaign(pool, kernels=("bfs", "cc"), progress=abort)
        # The pool handle is still usable; the aborted campaign's workers
        # were replaced and its stray messages are dropped by stamp.
        telemetry = Telemetry()
        results = _campaign(pool, kernels=("bfs", "cc"), telemetry=telemetry)
        assert len(results) == 2 and all(r.ok for r in results)
        assert len(telemetry.spans) == 2


def test_reset_replaces_every_worker():
    with WorkerPool(2) as pool:
        pids_before = pool.pids()
        pool.reset()
        pids_after = pool.pids()
        assert set(pids_before.values()).isdisjoint(set(pids_after.values()))
        results = _campaign(pool)
        assert len(results) == 1 and all(r.ok for r in results)


def test_reset_survives_a_worker_killed_while_reporting():
    """A worker terminated inside ``results.put()`` dies holding the queue's
    write lock; the replacements must not be handed that queue."""
    with WorkerPool(2) as pool:
        stale = pool._results
        stale._wlock.acquire()  # what the dead worker left behind
        pool.reset()
        assert pool._results is not stale  # or the campaign below never ends
        results = _campaign(pool, kernels=("bfs", "cc"))
        assert len(results) == 2 and all(r.ok for r in results)


def test_dead_worker_is_replaced_at_next_campaign():
    with WorkerPool(2) as pool:
        victim = pool._slots[0]["process"]
        victim.terminate()
        victim.join(5.0)
        assert not pool.is_alive(0)
        results = _campaign(pool, kernels=("bfs", "cc"))
        assert len(results) == 2 and all(r.ok for r in results)
        assert pool.is_alive(0)


def test_shutdown_is_idempotent():
    pool = WorkerPool(2)
    pool.shutdown()
    pool.shutdown()
    assert not any(pool.is_alive(slot) for slot in range(pool.jobs))


def test_pool_rejects_nonpositive_jobs():
    with pytest.raises(ValueError):
        WorkerPool(0)
