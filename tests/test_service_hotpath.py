"""The fixed costs really left the service's hot paths.

A submission served wholly from the caches (hits, or subscriptions to
cells already executing) must read neither the filesystem nor ``/proc``;
the admission probe runs only once some cell needs executing, and before
it is claimed.  On the miss path, ``git`` is forked at most once per
process however many fingerprints a job takes.
"""

from __future__ import annotations

import shutil
import subprocess
import threading
import time

import pytest

from repro.service import BenchmarkService, CampaignRequest
from repro.service import server as server_module
from repro.store import environment
from repro.store.environment import fingerprint, git_sha, version_string


def _request(**overrides):
    payload = {
        "graphs": ("urand",),
        "kernels": ("bfs", "cc"),
        "frameworks": ("gap",),
        "modes": ("baseline",),
        "scale": 6,
    }
    payload.update(overrides)
    return CampaignRequest(**payload)


@pytest.fixture()
def service(tmp_path):
    svc = BenchmarkService(
        archive_dir=tmp_path / "archive", cache_dir=tmp_path / "graphs", jobs=1
    )
    yield svc
    svc.shutdown()


@pytest.fixture()
def probes(service, monkeypatch):
    """Every admission probe, as the number of cells claimed when it ran."""
    seen: list[int] = []
    real_disk_usage = shutil.disk_usage

    def disk_usage(path):
        seen.append(len(service._inflight))
        return real_disk_usage(path)

    monkeypatch.setattr(shutil, "disk_usage", disk_usage)
    return seen


class TestAdmissionProbe:
    def test_all_hit_submission_probes_nothing(self, service, probes):
        service.submit_collect(_request())
        del probes[:]
        events = service.submit_collect(_request())
        assert events[-1]["event"] == "done"
        assert events[-1]["hits"] == 2
        assert probes == []

    def test_miss_is_probed_before_it_is_claimed(self, service, probes):
        events = service.submit_collect(_request())
        assert events[-1]["executed"] == 2
        assert len(probes) >= 1  # disk
        assert set(probes) == {0}  # nothing was in flight at any probe

    def test_all_coalesced_submission_probes_nothing(
        self, service, probes, monkeypatch
    ):
        gate = threading.Event()
        execute = service._execute

        def held_execute(job):
            gate.wait(30.0)
            execute(job)

        monkeypatch.setattr(service, "_execute", held_execute)
        outcomes: dict[str, list] = {}

        def submit(name):
            outcomes[name] = service.submit_collect(_request())

        owner = threading.Thread(target=submit, args=("owner",))
        owner.start()
        try:
            deadline = time.monotonic() + 10.0
            while len(service._inflight) < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert len(service._inflight) == 2
            del probes[:]
            follower = threading.Thread(target=submit, args=("follower",))
            follower.start()
            while (
                service.stats["cells_coalesced"] < 2 and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            assert service.stats["cells_coalesced"] == 2
            assert probes == []
        finally:
            gate.set()
            owner.join(60.0)
        follower.join(60.0)
        assert outcomes["owner"][-1]["executed"] == 2
        assert outcomes["follower"][-1]["event"] == "done"
        assert outcomes["follower"][-1]["executed"] == 0
        assert service.stats["cells_executed"] == 2

    def test_watermark_change_takes_effect_on_the_next_miss(self, service, probes):
        service.submit_collect(_request(kernels=("bfs",)))
        service.min_free_bytes = 10**18
        # Still a pure hit: served, unprobed, not counted as degraded.
        assert service.submit_collect(_request(kernels=("bfs",)))[-1]["event"] == "done"
        assert service.stats["submissions_degraded"] == 0
        refused = service.submit_collect(_request())
        assert refused[-1]["event"] == "degraded"
        assert refused[-1]["hits"] == 1
        assert refused[-1]["rejected"] == 1
        assert service.stats["submissions"] == 3  # the re-classified pass counts once
        service.min_free_bytes = 0
        assert service.submit_collect(_request())[-1]["executed"] == 1


@pytest.fixture()
def git_forks(monkeypatch):
    """Every ``git`` this process forks, with a cold memo before and after."""
    monkeypatch.delenv("REPRO_GIT_SHA", raising=False)
    forks: list[list[str]] = []
    real_run = subprocess.run

    def run(cmd, *args, **kwargs):
        if cmd and cmd[0] == "git":
            forks.append(list(cmd))
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", run)
    environment._rev_parse_head.cache_clear()
    yield forks
    environment._rev_parse_head.cache_clear()


class TestGitShaMemo:
    def test_fingerprints_fork_git_once(self, git_forks):
        first = fingerprint()
        second = fingerprint()
        version_string()
        assert first == second
        assert len(git_forks) == 1

    def test_miss_job_forks_git_at_most_once(self, git_forks, service):
        events = service.submit_collect(_request())
        assert events[-1]["executed"] == 2
        assert events[-1]["fresh_run_id"]
        assert len(git_forks) <= 1
        service.submit_collect(_request(seed=1))
        assert len(git_forks) <= 1

    def test_env_override_wins_over_a_warm_memo(self, git_forks, monkeypatch):
        memoised = git_sha()
        monkeypatch.setenv("REPRO_GIT_SHA", "deadbeefcafe0123")
        assert git_sha() == "deadbeefcafe"
        assert fingerprint()["git_sha"] == "deadbeefcafe"
        monkeypatch.delenv("REPRO_GIT_SHA")
        assert git_sha() == memoised
        assert len(git_forks) == 1

    def test_outside_a_work_tree_none_is_memoised(self, git_forks, tmp_path, monkeypatch):
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        monkeypatch.chdir(tmp_path)
        assert git_sha() is None
        assert git_sha() is None
        assert version_string().count("+g") == 0
        assert len(git_forks) == 1
