"""The durable-write primitive: atomic file replacement and a sealed log.

Everything this package persists is written here, in one of two shapes
(``docs/RESILIENCE.md``, "Durable writes", gives the rules in full):

* a **whole file** that is either its previous or its new bytes —
  results files, archive runs and indexes, reports, graph-cache
  artifacts and sidecars: :func:`atomic_write`;
* an **append-only JSONL log** acknowledged one fsync at a time — the
  checkpoint journal and the cell index: :class:`AppendLog`, one line
  per record, each *sealed* with a ``crc`` of its canonical JSON.

A log line is intact when it is newline-terminated, parses as a JSON
object and its ``crc`` verifies.  An unterminated tail, or a final line
that is not intact, was **never durable** (the writer died before the
fsync that would have acknowledged it): readers drop it, and a writer
cuts it from the file before its first append — appending after a
fragment would fuse the next record with it.  A damaged line *before*
the final one is **interior damage**: a strict reader refuses the file.

Every byte goes through the :mod:`repro.faults` shim keyed on the
*destination* path.  A leaf module — stdlib, :mod:`repro.errors` and the
shim — so ``core``, ``graphs``, ``resilience`` and ``store`` import it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable

from .errors import CorruptLogError
from .faults import shim_fsync, shim_replace, shim_write

__all__ = [
    "AppendLog",
    "atomic_write",
    "line_crc",
    "seal_line",
    "verify_line",
]

#: One log record (a JSON object), sealed or not.
Record = dict[str, object]

#: Field name carrying a record's checksum inside JSONL lines.
CRC_FIELD = "crc"

#: Digest length kept per line: 12 hex chars = 48 bits, plenty to make an
#: accidental collision on a damaged line implausible while keeping the
#: per-record overhead far below the record itself.
_CRC_HEX_CHARS = 12


def atomic_write(path: str | Path, data: bytes) -> None:
    """Replace ``path`` with ``data``: old bytes or new bytes, never torn.

    Staged in a temp file in the destination directory (created if
    missing), fsynced, renamed into place; the temp file is gone on every
    exit, and a failure (``OSError``) leaves the previous file untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as stream:
            shim_write(stream, data, path)
            shim_fsync(stream, path)
        shim_replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)


# -- line sealing -------------------------------------------------------


def line_crc(record: Record) -> str:
    """Checksum of a record's canonical JSON, excluding the crc itself.

    Uses ``default=str`` like the line encoder does, so a record sealed
    before serialization and the same record re-parsed from disk hash
    identically even when a value was stringified on the way out.
    """
    body = {key: value for key, value in record.items() if key != CRC_FIELD}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:_CRC_HEX_CHARS]


def seal_line(record: Record) -> Record:
    """A copy of ``record`` carrying its :func:`line_crc`."""
    sealed = dict(record)
    sealed[CRC_FIELD] = line_crc(record)
    return sealed


def verify_line(record: Record) -> bool:
    """True when the record carries a crc and it matches."""
    return record.get(CRC_FIELD) == line_crc(record)


# -- the append-only log ------------------------------------------------


def _encode(record: Record) -> bytes:
    return json.dumps(seal_line(record), default=str).encode() + b"\n"


def _parse(path: Path) -> tuple[list[Record], list[str], list[str], int]:
    """Judge every line once: ``(records, interior, dropped, durable_end)``.

    ``interior`` names the damaged lines before the final one, ``dropped``
    the never-durable end; ``durable_end`` is the offset just past the
    last intact line, where the next append belongs.
    """
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raw = b""
    *lines, tail = raw.split(b"\n")
    records: list[Record] = []
    interior: list[str] = []
    dropped: list[str] = []
    durable_end = offset = 0
    for lineno, line in enumerate(lines, 1):
        offset += len(line) + 1
        try:
            record = json.loads(line)
        except ValueError:  # JSONDecodeError, or bytes that are not UTF-8
            reason = "unparseable"
        else:
            if isinstance(record, dict) and verify_line(record):
                records.append(record)
                durable_end = offset
                continue
            reason = "checksum mismatch"
        damaged = interior if lineno < len(lines) else dropped
        damaged.append(f"line {lineno}: {reason}")
    if tail:
        dropped.append(f"line {len(lines) + 1}: torn trailing line")
    return records, interior, dropped, durable_end


class AppendLog:
    """A sealed JSONL log: a header line, then one record per line.

    Construct with :meth:`open` (load what is durable, append after it)
    or :meth:`create` (start over).  ``header`` is the record written
    first whenever the file holds no intact line.  Not thread-safe: the
    owner serializes :meth:`append` and :meth:`close`.
    """

    def __init__(self, path: Path, header: Record, end: int) -> None:
        self.path = path
        self._header = header
        #: Offset just past the last acknowledged byte.  The stream is
        #: (re)opened by truncating to it, which cuts a crashed writer's
        #: fragment — or this writer's own failed append — before the
        #: next record can fuse with it.
        self._end = end
        self._stream = None

    @classmethod
    def open(cls, path: str | Path, header: Record) -> tuple["AppendLog", list[Record]]:
        """``(log, durable records)``; the file is not touched until the
        first :meth:`append`, so opening a missing log creates nothing.

        Raises :class:`~repro.errors.CorruptLogError` on interior damage.
        """
        path = Path(path)
        records, interior, _, durable_end = _parse(path)
        if interior:
            raise CorruptLogError(interior[0])
        return cls(path, header, durable_end), records

    @classmethod
    def create(cls, path: str | Path, header: Record) -> "AppendLog":
        """Start the log over: truncate, write the header, fsync."""
        log = cls(Path(path), header, 0)
        log.append([])
        return log

    @staticmethod
    def read(path: str | Path) -> list[Record]:
        """The durable records, header first; raises like :meth:`open`."""
        return AppendLog.open(path, {})[1]

    @staticmethod
    def scan(path: str | Path) -> tuple[list[Record], list[str]]:
        """Every intact record plus every problem, the never-durable end
        included, each naming its line; never raises on damage (``scrub``).
        """
        records, interior, dropped, _ = _parse(Path(path))
        return records, interior + dropped

    def append(self, records: Iterable[Record]) -> None:
        """Durably append ``records``: one write each, one fsync for all.

        Returning means acknowledged.  On ``OSError`` nothing of this
        call is acknowledged and whatever part of it reached the file is
        cut before the next append.
        """
        try:
            if self._stream is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._stream = open(self.path, "ab")
                # min(): a file deleted since it was read starts over
                # with a header instead of being zero-filled to _end.
                self._end = min(self._end, self._stream.tell())
                self._stream.truncate(self._end)
            first = [self._header] if self._end == 0 else []
            lines = [_encode(record) for record in (*first, *records)]
            for line in lines:
                shim_write(self._stream, line, self.path)
            shim_fsync(self._stream, self.path)
        except OSError:
            self.close()
            raise
        self._end += sum(map(len, lines))

    def close(self) -> None:
        """Close the stream; the next :meth:`append` reopens it."""
        if self._stream is not None:
            stream, self._stream = self._stream, None
            stream.close()
