"""Append-only journal (write-ahead log).

Record layout on disk::

    +----------------+----------------+------------------+
    | length (u32 LE)| crc32 (u32 LE) | payload (length) |
    +----------------+----------------+------------------+

Properties:

* **torn-write safety** — replay stops at the first record whose header or
  body is incomplete or whose CRC fails *at the tail*; the file is truncated
  to the last good record on open, so a crash mid-append never corrupts
  recovery.
* **group commit** — ``append`` buffers; ``flush`` hands the buffered
  records to the OS without an fsync (they survive a killed process, not
  a power loss); ``sync`` flushes+fsyncs once for all buffered records.
  ``append(..., sync=True)`` is the single-record durable path.
  Experiment F4 measures the batch-size/throughput shape this design
  gives.  The event store (:mod:`repro.storage.eventstore`) appends one
  record per engine commit and flushes it.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.storage.errors import CorruptRecordError, StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability

_HEADER = struct.Struct("<II")  # length, crc32


@dataclass(frozen=True)
class JournalRecord:
    """One replayed record: its byte offset and payload."""

    offset: int
    payload: bytes


class Journal:
    """A single-writer append-only log file."""

    def __init__(
        self,
        path: str,
        auto_recover: bool = True,
        obs: "Observability | None" = None,
    ) -> None:
        self.path = path
        self._obs = obs
        self._h_append = None if obs is None else obs.registry.histogram(
            "storage.journal.append_seconds"
        )
        self._h_sync = None if obs is None else obs.registry.histogram(
            "storage.journal.sync_seconds"
        )
        #: bytes cut from a torn tail on open (0 = the file was clean);
        #: recovery is deliberately *surfaced*, never silent
        self.recovered_bytes = 0
        #: byte offset where the last :meth:`replay` hit a torn tail
        #: (``None`` = the log read back clean end to end)
        self.torn_tail_offset: int | None = None
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # crash-safe open: scan and truncate a torn tail before appending
        if auto_recover and os.path.exists(path):
            self._truncate_torn_tail()
        self._file = open(path, "ab")
        self._pending = 0
        self._last_known_size = self._file.tell()

    # -- writing ------------------------------------------------------------

    def append(self, payload: bytes, sync: bool = False) -> int:
        """Append one record; returns its byte offset.

        With ``sync=False`` the record is buffered — call :meth:`sync` to
        make it (and everything before it) durable in one fsync.
        """
        if self._file.closed:
            raise StorageError("journal is closed")
        started = time.perf_counter() if self._h_append is not None else 0.0
        offset = self._file.tell()
        crc = zlib.crc32(payload)
        self._file.write(_HEADER.pack(len(payload), crc))
        self._file.write(payload)
        self._pending += 1
        if self._h_append is not None:
            self._h_append.observe(time.perf_counter() - started)
        if sync:
            self.sync()
        return offset

    def append_many(self, payloads: list[bytes], sync: bool = True) -> list[int]:
        """Group-commit helper: append a batch, then one sync.

        The ``sync`` defaults are deliberately asymmetric with
        :meth:`append` (``sync=False``): ``append`` is the low-level
        buffered primitive callers compose with an explicit :meth:`sync`,
        while ``append_many`` *is* the group-commit operation — its
        contract is "the whole batch is durable on return", amortizing one
        fsync over the batch.  Pass ``sync=False`` only to concatenate
        batches under a caller-managed sync (see DESIGN.md §Persistence).
        """
        offsets = [self.append(p, sync=False) for p in payloads]
        if sync:
            self.sync()
        return offsets

    def flush(self) -> None:
        """Hand buffered records to the OS without an fsync."""
        if self._file.closed:
            raise StorageError("journal is closed")
        self._file.flush()

    def sync(self) -> None:
        """Flush buffered records and fsync the file."""
        if self._file.closed:
            raise StorageError("journal is closed")
        started = time.perf_counter() if self._h_sync is not None else 0.0
        self._file.flush()
        os.fsync(self._file.fileno())
        if self._h_sync is not None:
            self._h_sync.observe(time.perf_counter() - started)
        self._pending = 0

    @property
    def pending_records(self) -> int:
        """Records appended since the last sync."""
        return self._pending

    @property
    def size(self) -> int:
        """Journal length in bytes.

        After :meth:`close` this reads the file; if the file has since
        been deleted, the last known length is returned instead of
        raising :class:`FileNotFoundError`.
        """
        if not self._file.closed:
            return self._file.tell()
        try:
            return os.path.getsize(self.path)
        except OSError:
            return self._last_known_size

    # -- reading ------------------------------------------------------------

    def replay(self) -> Iterator[JournalRecord]:
        """Yield all intact records in append order.

        Raises :class:`CorruptRecordError` for corruption in the *middle*
        of the log (data loss); a torn tail (crash artifact) ends iteration
        but is surfaced via :attr:`torn_tail_offset` and the
        ``storage.journal.torn_tails`` counter rather than swallowed.
        A closed journal reads the file back as it was left.
        """
        if not self._file.closed:
            self._file.flush()
        self.torn_tail_offset = None
        with open(self.path, "rb") as reader:
            file_size = os.fstat(reader.fileno()).st_size
            offset = 0
            while True:
                header = reader.read(_HEADER.size)
                if len(header) == 0:
                    return
                if len(header) < _HEADER.size:
                    self._note_torn_tail(offset)  # torn header at tail
                    return
                length, crc = _HEADER.unpack(header)
                payload = reader.read(length)
                if len(payload) < length:
                    self._note_torn_tail(offset)  # torn body at tail
                    return
                if zlib.crc32(payload) != crc:
                    if reader.tell() == file_size:
                        self._note_torn_tail(offset)  # corrupt final record
                        return
                    raise CorruptRecordError(
                        f"CRC mismatch at offset {offset} in {self.path}"
                    )
                yield JournalRecord(offset=offset, payload=payload)
                offset = reader.tell()

    def _note_torn_tail(self, offset: int) -> None:
        """Surface a torn tail found during replay."""
        self.torn_tail_offset = offset
        if self._obs is not None:
            self._obs.registry.counter("storage.journal.torn_tails").inc()
            self._obs.event("journal.torn_tail", path=self.path, offset=offset)

    def _truncate_torn_tail(self) -> None:
        """Cut the file back to the end of the last intact record."""
        good_end = 0
        try:
            with open(self.path, "rb") as reader:
                while True:
                    header = reader.read(_HEADER.size)
                    if len(header) < _HEADER.size:
                        break
                    length, crc = _HEADER.unpack(header)
                    payload = reader.read(length)
                    if len(payload) < length or zlib.crc32(payload) != crc:
                        break
                    good_end = reader.tell()
        except OSError as exc:
            raise StorageError(f"cannot scan journal {self.path}: {exc}") from exc
        file_size = os.path.getsize(self.path)
        if good_end < file_size:
            self.recovered_bytes = file_size - good_end
            if self._obs is not None:
                self._obs.registry.counter("storage.journal.torn_tails").inc()
                self._obs.event(
                    "journal.recovered",
                    path=self.path,
                    truncated_to=good_end,
                    recovered_bytes=self.recovered_bytes,
                )
            with open(self.path, "r+b") as writer:
                writer.truncate(good_end)

    # -- lifecycle ------------------------------------------------------------

    def reset(self) -> None:
        """Erase the journal (after a snapshot made its contents redundant)."""
        if self._file.closed:
            raise StorageError("journal is closed")
        self._file.close()
        self._file = open(self.path, "wb")
        self._file.close()
        self._file = open(self.path, "ab")
        self._pending = 0

    def close(self) -> None:
        """Flush and close; further writes raise."""
        if not self._file.closed:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._last_known_size = self._file.tell()
            self._file.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
