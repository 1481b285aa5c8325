"""The one fault plan (:mod:`repro.faults`): format, occurrence rule, ways in.

Pinned here:

* a :class:`Fault` is one of ten kinds at one of two sites, refuses a
  filter from the other site's family, and ``parse_plan`` round-trips
  ``as_dict`` for both families;
* a fault fires on occurrences ``first`` .. ``first + times - 1`` — a
  cell's attempt number, a storage call's per-fault match count;
* an installed plan is the whole plan while installed: it suspends the
  ``REPRO_FAULTS`` plan and leaves its counters and record alone;
* the I/O shim's four storage behaviours;
* a plan reaches ``spawn`` workers through the campaign message.

The runner surviving each cell kind is ``test_resilience.py``'s serial
section and ``test_executor_matrix.py``'s backend matrix; every crash
point of the durable flows is ``test_durable.py``.
"""

from __future__ import annotations

import errno
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Telemetry, run_suite
from repro.core.pool import WorkerPool
from repro.core.spec import BenchmarkSpec
from repro.faults import (
    CRASH_EXIT_CODE,
    KINDS,
    Fault,
    active_plan,
    fire,
    fired,
    installed,
    parse_plan,
    shim_fsync,
    shim_replace,
    shim_write,
)
from repro.frameworks import KERNELS, Mode
from repro.gapbs import GAPReference


@pytest.fixture(autouse=True)
def _no_env_plan(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


def _write(path, data=b"x"):
    with path.open("ab") as stream:
        shim_write(stream, data, path)


def _set_env_plan(monkeypatch, *plan):
    monkeypatch.setenv("REPRO_FAULTS", json.dumps([fault.as_dict() for fault in plan]))


class TestSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("disk-melts")
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("cache-corrupt")  # a bit-flip aimed at ".npz" does its job

    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError, match="cannot fire on operation"):
            Fault("enospc", operation="mmap")
        with pytest.raises(ValueError, match="cannot fire on operation"):
            Fault("fsync-fail", operation="write")

    def test_negative_first_and_zero_times_rejected(self):
        with pytest.raises(ValueError, match="first"):
            Fault("enospc", first=-1)
        with pytest.raises(ValueError, match="times"):
            Fault("crash", times=0)

    def test_filter_from_the_other_family_rejected(self):
        with pytest.raises(ValueError, match="storage fault; it cannot filter on kernel"):
            Fault("enospc", kernel="cc")
        with pytest.raises(ValueError, match="cell fault; it cannot filter on path"):
            Fault("crash", path="journal")
        with pytest.raises(ValueError, match="unknown keys"):
            parse_plan('[{"kind": "crash", "attempts": [0]}]')  # the old spelling

    def test_kind_restricts_operations(self, tmp_path):
        # fsync-fail never fires on a write, torn-write never on an fsync.
        path = tmp_path / "f.bin"
        with installed(Fault("fsync-fail", times=None), Fault("torn-write", times=None)):
            with path.open("wb") as stream:
                with pytest.raises(OSError, match="torn write"):
                    shim_write(stream, b"ab", path)
                with pytest.raises(OSError, match="fsync failed"):
                    shim_fsync(stream, path)
            assert [f["kind"] for f in fired()] == ["torn-write", "fsync-fail"]

    def test_path_substring_match(self, tmp_path):
        (tmp_path / "archive").mkdir()
        journal = tmp_path / "archive" / "job-1.jsonl"
        manifest = tmp_path / "archive" / "manifest.json"
        with installed(Fault("enospc", path="job-", times=None)):
            _write(manifest)
            with pytest.raises(OSError):
                _write(journal)
            assert fired() == [
                {"kind": "enospc", "operation": "write", "path": str(journal)}
            ]

    def test_parse_round_trips_as_dict(self):
        plan = parse_plan(
            '[{"kind": "crash", "kernel": "cc", "mode": "optimized"},'
            ' {"kind": "torn-write", "path": "journal", "first": 3},'
            ' {"kind": "enospc", "times": null}]'
        )
        assert plan == (
            Fault("crash", kernel="cc", mode="optimized"),
            Fault("torn-write", path="journal", first=3),
            Fault("enospc", times=None),
        )
        assert parse_plan(json.dumps([fault.as_dict() for fault in plan])) == plan

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError, match="JSON list"):
            parse_plan('{"kind": "enospc"}')
        with pytest.raises(ValueError, match="needs at least a 'kind'"):
            parse_plan('[{"path": "x"}]')


_name = st.none() | st.text(min_size=1, max_size=8)
_occurrences = {
    "first": st.integers(min_value=0, max_value=50),
    "times": st.none() | st.integers(min_value=1, max_value=50),
}
_cell_faults = st.builds(
    Fault,
    kind=st.sampled_from([k for k, site in KINDS.items() if site == "cell"]),
    framework=_name, kernel=_name, graph=_name, mode=_name, **_occurrences,
)
_storage_faults = st.sampled_from(
    [("enospc", "replace"), ("torn-write", "write"), ("fsync-fail", "fsync"),
     ("bit-flip", None), ("enospc", None)]
).flatmap(
    lambda kind_op: st.builds(
        Fault, kind=st.just(kind_op[0]), path=_name,
        operation=st.just(kind_op[1]), **_occurrences,
    )
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_cell_faults | _storage_faults, max_size=6))
def test_parse_plan_round_trips_both_families(plan):
    text = json.dumps([fault.as_dict() for fault in plan])
    assert parse_plan(text) == tuple(plan)


class TestCoordinates:
    def test_counted_write_fires_exactly_once(self, tmp_path):
        path = tmp_path / "f.bin"
        with installed(Fault("enospc", first=2)):
            with path.open("wb") as stream:
                shim_write(stream, b"a", path)  # call 0
                shim_write(stream, b"b", path)  # call 1
                with pytest.raises(OSError) as exc:
                    shim_write(stream, b"c", path)  # call 2: fires
                assert exc.value.errno == errno.ENOSPC
                shim_write(stream, b"d", path)  # call 3: past the coordinate
            assert len(fired()) == 1
        assert path.read_bytes() == b"abd"

    def test_unbounded_times_keeps_firing(self, tmp_path):
        path = tmp_path / "f.bin"
        with installed(Fault("enospc", first=1, times=None)):
            _write(path, b"a")
            for _ in range(3):
                with pytest.raises(OSError):
                    _write(path)
            assert len(fired()) == 3
        assert path.read_bytes() == b"a"

    def test_times_bounds_a_window(self, tmp_path):
        path = tmp_path / "f.bin"
        with installed(Fault("enospc", first=1, times=2)):
            outcomes = []
            for _ in range(5):
                try:
                    _write(path)
                    outcomes.append("ok")
                except OSError:
                    outcomes.append("enospc")
        assert outcomes == ["ok", "enospc", "enospc", "ok", "ok"]

    def test_two_faults_on_one_path_count_independently(self, tmp_path):
        # Both match every write to f.bin; each counts its own matches,
        # and a call the first one fires on still advances the second.
        path = tmp_path / "f.bin"
        with installed(
            Fault("enospc", path="f.bin", first=1),
            Fault("bit-flip", path="f.bin", first=1),
            Fault("torn-write", path="f.bin", first=2),
        ):
            _write(path, b"0123")  # call 0: nothing due
            with pytest.raises(OSError) as exc:
                _write(path, b"4567")  # call 1: enospc and bit-flip due; first wins
            assert exc.value.errno == errno.ENOSPC
            with pytest.raises(OSError) as exc:
                _write(path, b"89ab")  # call 2: bit-flip spent, torn-write due
            assert exc.value.errno == errno.EIO
            assert [f["kind"] for f in fired()] == ["enospc", "torn-write"]
        assert path.read_bytes() == b"012389"

    def test_cell_occurrence_is_the_attempt(self):
        def fires(attempt, framework="gap", kernel="cc"):
            try:
                fire(framework, kernel, "kron", "baseline", attempt)
            except MemoryError:
                return True
            return False

        with installed(Fault("oom", kernel="cc", first=1)):
            assert [fires(a) for a in range(4)] == [False, True, False, False]
            assert not fires(1, kernel="bfs")
        with installed(Fault("oom", framework="gap", first=2, times=None)):
            assert [fires(a) for a in range(5)] == [False, False, True, True, True]
            assert fires(9, kernel="tc")  # unfiltered fields are wildcards
            assert not fires(9, framework="gkc")
            assert fired()[0] == {
                "kind": "oom", "framework": "gap", "kernel": "cc",
                "graph": "kron", "mode": "baseline", "attempt": 2,
            }

    def test_context_manager_restores_previous_plan(self, tmp_path):
        path = tmp_path / "f.bin"
        with installed(Fault("enospc", times=None)):
            with installed():  # empty scoped plan: faults suspended
                _write(path, b"ok")
            with pytest.raises(OSError):
                _write(path)
        assert path.read_bytes() == b"ok"

    # The env plan is parsed (and counted) once per distinct text in a
    # process, so each test aims its env plan at its own tmp_path.

    def test_env_plan_reaches_the_shim(self, tmp_path, monkeypatch):
        path = tmp_path / "f.bin"
        _set_env_plan(monkeypatch, Fault("enospc", path=str(path)))
        with pytest.raises(OSError) as exc:
            _write(path)
        assert exc.value.errno == errno.ENOSPC
        assert active_plan() == (Fault("enospc", path=str(path)),)

    def test_scoped_plan_suspends_the_env_plan(self, tmp_path, monkeypatch):
        path = tmp_path / "x.bin"
        _set_env_plan(monkeypatch, Fault("enospc", path=str(path)))
        with installed(Fault("bit-flip", path="other")):
            assert active_plan() == (Fault("bit-flip", path="other"),)
            _write(path)  # the env's enospc is not in force here
            assert fired() == []
        with pytest.raises(OSError):
            _write(path)  # ...and is again, untouched, once the scope ends

    def test_leaving_a_scope_does_not_rearm_the_env_plan(self, tmp_path, monkeypatch):
        path = tmp_path / "x.bin"
        _set_env_plan(monkeypatch, Fault("enospc", path=str(path)))
        with pytest.raises(OSError):
            _write(path)  # the once-only fault fires on the first write
        with installed():
            pass
        _write(path)  # still spent: the scope did not reset its counter
        assert len(fired()) == 1


class TestShimBehavior:
    def test_torn_write_leaves_a_strict_prefix(self, tmp_path):
        path = tmp_path / "f.bin"
        payload = b'{"digest": "abcdef", "run_id": "r1"}\n'
        with installed(Fault("torn-write")):
            with path.open("wb") as stream:
                with pytest.raises(OSError) as exc:
                    shim_write(stream, payload, path)
        assert exc.value.errno == errno.EIO
        torn = path.read_bytes()
        assert 0 < len(torn) < len(payload)
        assert payload.startswith(torn)
        assert not torn.endswith(b"\n")  # the newline never lands

    def test_bit_flip_succeeds_silently(self, tmp_path):
        path = tmp_path / "f.bin"
        payload = b"0123456789"
        with installed(Fault("bit-flip")):
            _write(path, payload)  # no exception: silent damage
            assert fired()[0]["kind"] == "bit-flip"
        written = path.read_bytes()
        assert len(written) == len(payload)
        diff = [i for i in range(len(payload)) if written[i] != payload[i]]
        assert len(diff) == 1

    def test_fsync_fail_raises_after_flush(self, tmp_path):
        path = tmp_path / "f.bin"
        with installed(Fault("fsync-fail")):
            with path.open("wb") as stream:
                shim_write(stream, b"data", path)
                with pytest.raises(OSError) as exc:
                    shim_fsync(stream, path)
        assert exc.value.errno == errno.EIO
        # The data reached the page cache (flushed), just not the platter.
        assert path.read_bytes() == b"data"

    def test_replace_enospc_keyed_on_destination(self, tmp_path):
        src = tmp_path / "staged.json"
        dst = tmp_path / "final.json"
        src.write_text("payload")
        with installed(Fault("enospc", path="final.json")):
            with pytest.raises(OSError) as exc:
                shim_replace(src, dst)
        assert exc.value.errno == errno.ENOSPC
        assert src.exists() and not dst.exists()

    def test_no_plan_is_a_passthrough(self, tmp_path):
        path = tmp_path / "f.bin"
        with path.open("wb") as stream:
            shim_write(stream, b"abc", path)
            shim_fsync(stream, path)
        shim_replace(path, tmp_path / "g.bin")
        assert (tmp_path / "g.bin").read_bytes() == b"abc"
        assert active_plan() == () and fired() == []


def test_crash_reaches_a_spawn_worker_through_the_campaign_message():
    """A ``spawn`` worker inherits no installed plan: the message carries it."""
    spec = BenchmarkSpec(scale=6, trials={k: 1 for k in KERNELS}, retries=1)
    telemetry = Telemetry()
    with WorkerPool(1, context="spawn") as pool:
        with installed(Fault("crash", kernel="bfs")):
            (result,) = run_suite(
                [GAPReference()], ["kron"], kernels=["bfs"], modes=[Mode.BASELINE],
                spec=spec, pool=pool, telemetry=telemetry,
            )
    # Attempt 0 took its worker down; attempt 1 ran on the replacement.
    assert result.ok and result.attempts == 2
    (lost, ok) = telemetry.spans
    assert f"exit code {CRASH_EXIT_CODE}" in lost.error["message"]
    assert ok.status == "ok"
