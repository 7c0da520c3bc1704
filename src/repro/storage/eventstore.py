"""Append-only event store with per-stream indexes.

The history service (:mod:`repro.history`) records every engine state
change as an event.  Events are grouped into *streams* (one per process
instance) and globally sequenced.  The store is backed by a
:class:`~repro.storage.journal.Journal` when given a path, or kept purely
in memory otherwise.

Writes are grouped.  :meth:`EventStore.append` only sequences and indexes
the event in memory; :meth:`EventStore.commit` writes every event
appended since the last commit as **one** journal record and hands it to
the OS (no fsync)::

    {"first": <sequence of the first row>,
     "rows": [[stream, type, timestamp, data], ...]}

A row's sequence is ``first`` plus its position.  The engine commits the
history once per store commit, just before the store transaction, so
committed engine state never lacks its written history.  :meth:`sync`
and :meth:`close` commit the tail and then fsync; ``sync_writes=True``
syncs on every append, so each event is durable when ``append`` returns.
A torn final record costs that whole batch, never an earlier one.

Logs written before batching hold one event dict per record
(``{"sequence", "stream", "type", "timestamp", "data"}``); replay reads
both layouts, so such a log still opens and new batches number on from
its last event.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.storage.errors import StorageError
from repro.storage.journal import Journal
from repro.storage.serializers import json_decode, json_encode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability


@dataclass(frozen=True)
class EventRecord:
    """One immutable event."""

    sequence: int
    stream: str
    type: str
    timestamp: float
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "sequence": self.sequence,
            "stream": self.stream,
            "type": self.type,
            "timestamp": self.timestamp,
            "data": self.data,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "EventRecord":
        return cls(
            sequence=raw["sequence"],
            stream=raw["stream"],
            type=raw["type"],
            timestamp=raw["timestamp"],
            data=raw.get("data", {}),
        )


class EventStore:
    """Globally ordered, stream-indexed, append-only event log."""

    def __init__(
        self,
        path: str | None = None,
        sync_writes: bool = False,
        obs: "Observability | None" = None,
    ) -> None:
        self._events: list[EventRecord] = []
        self._streams: dict[str, list[int]] = {}
        self._journal: Journal | None = None
        #: events before this sequence are written to the journal
        self._committed = 0
        self.sync_writes = sync_writes
        self._obs = obs
        self._h_append = None if obs is None else obs.registry.histogram(
            "storage.eventstore.append_seconds"
        )
        if path is not None:
            self._journal = Journal(path, obs=obs)
            for record in self._journal.replay():
                self._load(json_decode(record.payload))
            self._committed = len(self._events)

    def _load(self, raw: dict[str, Any]) -> None:
        """Index one replayed journal record of either layout."""
        if "rows" not in raw:  # one event per record (pre-batch layout)
            self._index(EventRecord.from_dict(raw))
            return
        sequence = raw["first"]
        for stream, event_type, timestamp, data in raw["rows"]:
            self._index(EventRecord(sequence, stream, event_type, timestamp, data))
            sequence += 1

    def _index(self, event: EventRecord) -> None:
        if event.sequence != len(self._events):
            raise StorageError(
                f"event sequence gap: expected {len(self._events)}, "
                f"got {event.sequence}"
            )
        self._events.append(event)
        self._streams.setdefault(event.stream, []).append(event.sequence)

    # -- writing ------------------------------------------------------------

    def append(
        self,
        stream: str,
        event_type: str,
        timestamp: float,
        data: dict[str, Any] | None = None,
    ) -> EventRecord:
        """Append one event; returns the sequenced record.

        The event is indexed in memory and written by the next
        :meth:`commit` (at once, and fsynced, under ``sync_writes``).
        """
        if not stream or not event_type:
            raise StorageError("stream and event_type must be non-empty")
        started = time.perf_counter() if self._h_append is not None else 0.0
        event = EventRecord(
            sequence=len(self._events),
            stream=stream,
            type=event_type,
            timestamp=timestamp,
            data=dict(data or {}),
        )
        self._index(event)
        if self.sync_writes:
            self.sync()
        if self._h_append is not None:
            self._h_append.observe(time.perf_counter() - started)
        return event

    def commit(self) -> None:
        """Write the events appended since the last commit as one journal
        record and hand it to the OS (no fsync; see :meth:`sync`).

        Writes nothing when no event is pending or the store is in
        memory.  An event whose data is not JSON-serializable raises
        :class:`StorageError` and keeps its batch pending.
        """
        first = self._committed
        if first == len(self._events):
            return
        if self._journal is not None:
            rows = [
                [e.stream, e.type, e.timestamp, e.data]
                for e in self._events[first:]
            ]
            self._journal.append(json_encode({"first": first, "rows": rows}))
            self._journal.flush()
        self._committed = len(self._events)

    def sync(self) -> None:
        """Commit pending events and fsync them when journal-backed."""
        self.commit()
        if self._journal is not None:
            self._journal.sync()

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def all(self) -> Iterator[EventRecord]:
        """All events in global order."""
        return iter(self._events)

    def stream(self, stream: str) -> list[EventRecord]:
        """All events of one stream, in order."""
        return [self._events[i] for i in self._streams.get(stream, ())]

    def streams(self) -> list[str]:
        """All stream names, sorted."""
        return sorted(self._streams)

    def of_type(self, event_type: str) -> list[EventRecord]:
        """All events of a given type, in global order."""
        return [e for e in self._events if e.type == event_type]

    def since(self, sequence: int) -> list[EventRecord]:
        """Events with ``sequence >= sequence`` (catch-up reads)."""
        return self._events[sequence:]

    def close(self) -> None:
        """Commit pending events and close the backing journal, if any."""
        if self._journal is not None:
            self.commit()
            self._journal.close()
