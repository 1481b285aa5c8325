"""Tests for the injectable I/O fault shim (:mod:`repro.iofaults`)."""

from __future__ import annotations

import errno
import json

import pytest

from repro.iofaults import (
    IOFaultSpec,
    clear_io_plan,
    fired_io_faults,
    install_io_plan,
    io_faults,
    parse_io_plan,
    shim_fsync,
    shim_replace,
    shim_write,
)


@pytest.fixture(autouse=True)
def _clean_plan():
    clear_io_plan()
    yield
    clear_io_plan()


class TestSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown I/O fault kind"):
            IOFaultSpec("disk-melts")

    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError, match="unknown I/O operation"):
            IOFaultSpec("enospc", operation="mmap")

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            IOFaultSpec("enospc", count=-1)

    def test_kind_restricts_operations(self):
        # fsync-fail can never fire on a write; torn-write never on fsync.
        assert not IOFaultSpec("fsync-fail").applies_to("write", "x")
        assert IOFaultSpec("fsync-fail").applies_to("fsync", "x")
        assert not IOFaultSpec("torn-write").applies_to("fsync", "x")
        assert IOFaultSpec("enospc").applies_to("replace", "x")

    def test_path_substring_match(self):
        spec = IOFaultSpec("enospc", path="cell_index")
        assert spec.applies_to("write", "/data/archive/cell_index.jsonl")
        assert not spec.applies_to("write", "/data/archive/runs/manifest.json")

    def test_parse_round_trips_as_dict(self):
        plan = parse_io_plan(
            '[{"kind": "torn-write", "path": "journal", "count": 3},'
            ' {"kind": "enospc", "repeat": true}]'
        )
        assert plan[0] == IOFaultSpec("torn-write", path="journal", count=3)
        assert plan[1].repeat
        assert parse_io_plan(json.dumps([s.as_dict() for s in plan])) == plan

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError, match="JSON list"):
            parse_io_plan('{"kind": "enospc"}')
        with pytest.raises(ValueError, match="needs at least a 'kind'"):
            parse_io_plan('[{"path": "x"}]')


class TestCoordinates:
    def test_counted_write_fires_exactly_once(self, tmp_path):
        path = tmp_path / "f.bin"
        install_io_plan([IOFaultSpec("enospc", count=2)])
        with path.open("wb") as stream:
            shim_write(stream, b"a", path)  # call 0
            shim_write(stream, b"b", path)  # call 1
            with pytest.raises(OSError) as exc:
                shim_write(stream, b"c", path)  # call 2: fires
            assert exc.value.errno == errno.ENOSPC
            shim_write(stream, b"d", path)  # call 3: past the coordinate
        assert path.read_bytes() == b"abd"
        assert len(fired_io_faults()) == 1

    def test_repeat_keeps_firing(self, tmp_path):
        path = tmp_path / "f.bin"
        install_io_plan([IOFaultSpec("enospc", count=1, repeat=True)])
        with path.open("wb") as stream:
            shim_write(stream, b"a", path)
            for _ in range(3):
                with pytest.raises(OSError):
                    shim_write(stream, b"x", path)
        assert path.read_bytes() == b"a"
        assert len(fired_io_faults()) == 3

    def test_counters_are_per_fault_slot(self, tmp_path):
        # Two faults aimed at different files advance independently.
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        install_io_plan(
            [IOFaultSpec("enospc", path="a.bin"), IOFaultSpec("enospc", path="b.bin", count=1)]
        )
        with a.open("wb") as stream:
            with pytest.raises(OSError):
                shim_write(stream, b"1", a)
        with b.open("wb") as stream:
            shim_write(stream, b"1", b)
            with pytest.raises(OSError):
                shim_write(stream, b"2", b)

    def test_context_manager_restores_previous_plan(self, tmp_path):
        path = tmp_path / "f.bin"
        install_io_plan([IOFaultSpec("enospc", repeat=True)])
        with io_faults():  # empty scoped plan: faults suspended
            with path.open("wb") as stream:
                shim_write(stream, b"ok", path)
        with path.open("ab") as stream:
            with pytest.raises(OSError):
                shim_write(stream, b"x", path)

    def test_env_plan_reaches_the_shim(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_IO_FAULTS", '[{"kind": "enospc", "path": "f.bin"}]'
        )
        path = tmp_path / "f.bin"
        with path.open("wb") as stream:
            with pytest.raises(OSError) as exc:
                shim_write(stream, b"x", path)
        assert exc.value.errno == errno.ENOSPC


class TestShimBehavior:
    def test_torn_write_leaves_a_strict_prefix(self, tmp_path):
        path = tmp_path / "f.bin"
        install_io_plan([IOFaultSpec("torn-write")])
        payload = b'{"digest": "abcdef", "run_id": "r1"}\n'
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
        install_io_plan([IOFaultSpec("bit-flip")])
        payload = b"0123456789"
        with path.open("wb") as stream:
            shim_write(stream, payload, path)  # no exception: silent damage
        written = path.read_bytes()
        assert len(written) == len(payload)
        assert written != payload
        diff = [i for i in range(len(payload)) if written[i] != payload[i]]
        assert len(diff) == 1
        assert fired_io_faults()[0]["kind"] == "bit-flip"

    def test_fsync_fail_raises_after_flush(self, tmp_path):
        path = tmp_path / "f.bin"
        install_io_plan([IOFaultSpec("fsync-fail")])
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
        install_io_plan([IOFaultSpec("enospc", path="final.json")])
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
        assert fired_io_faults() == []
