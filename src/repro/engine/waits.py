"""Message waits: tokens parked on a message, indexed and persisted per record.

A token that reaches a catching message event or a receive task, or an
event-based gateway with message branches, registers a
:class:`MessageWait`.  :class:`MessageWaits` owns the whole collection:
its record format, its indexes, and its change tracking.

Matching.  A publish of ``(name, correlation)`` is offered to the waits on
that name whose correlation equals it, or that take any correlation
(``match_any``), in registration order: the first-registered matching
wait wins.  Waits are indexed by ``(name, correlation)``; ``match_any``
waits, and waits whose correlation cannot be hashed, sit in a per-name
bucket.  Both buckets are kept in ``seq`` order, so the candidates of one
publish are their merge by ``seq``, each re-checked with ``==``.  A
per-instance index serves release, race settling and redelivery.

Persistence.  Every wait gets a monotonically increasing ``seq`` and is
stored as its own record, ``msgwait/<seq:010d>``: put once when it is
registered, deleted once when it is delivered or released.  A commit
therefore writes only the waits that changed, however many are standing.
Recovery loads the records in ``seq`` order; a store written before this
layout keeps its waits in one ``engine/message_waits`` list, which is
imported once (``seq`` in list order) and replaced by records, with the
list deleted, in the next commit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Iterator

from repro.storage.kvstore import KeyValueStore

#: key prefix of the per-wait records
PREFIX = "msgwait/"
#: the whole-list layout of older stores, read once by :meth:`MessageWaits.load`
LEGACY_KEY = "engine/message_waits"


@dataclass(slots=True, eq=False)
class MessageWait:
    """One token's subscription to a message.

    Activity waits (message catch, receive task) carry the ``node_id``
    they resume through; event-gateway waits carry the ``race_gateway``
    and the ``race_event`` that wins the race when the message arrives.
    """

    seq: int
    instance_id: str
    token_id: str
    name: str
    correlation: Any
    match_any: bool
    node_id: str | None = None
    is_activity: bool = True
    race_gateway: str | None = None
    race_event: str | None = None

    @property
    def key(self) -> str:
        return _record_key(self.seq)

    def to_dict(self) -> dict[str, Any]:
        raw: dict[str, Any] = {
            "seq": self.seq,
            "instance_id": self.instance_id,
            "token_id": self.token_id,
            "name": self.name,
            "correlation": self.correlation,
            "match_any": self.match_any,
        }
        if self.race_event is not None:
            raw["race_gateway"] = self.race_gateway
            raw["race_event"] = self.race_event
        else:
            raw["node_id"] = self.node_id
            raw["is_activity"] = self.is_activity
        return raw

    @classmethod
    def from_dict(cls, raw: dict[str, Any], seq: int | None = None) -> "MessageWait":
        return cls(
            seq=raw["seq"] if seq is None else seq,
            instance_id=raw["instance_id"],
            token_id=raw["token_id"],
            name=raw["name"],
            correlation=raw.get("correlation"),
            match_any=raw.get("match_any", False),
            node_id=raw.get("node_id"),
            is_activity=raw.get("is_activity", True),
            race_gateway=raw.get("race_gateway"),
            race_event=raw.get("race_event"),
        )


def _record_key(seq: int) -> str:
    return f"{PREFIX}{seq:010d}"


def _seq_of(wait: MessageWait) -> int:
    return wait.seq


class MessageWaits:
    """The engine's standing message waits (see the module docstring)."""

    def __init__(self) -> None:
        self._seq = 0
        self._count = 0
        # (name, correlation) -> waits in seq order; mostly one each
        self._keyed: dict[tuple[str, Any], list[MessageWait]] = {}
        # name -> match_any / unhashable-correlation waits, by seq
        self._unkeyed: dict[str, dict[int, MessageWait]] = {}
        # instance id -> its waits in seq order
        self._by_instance: dict[str, list[MessageWait]] = {}
        # change tracking since the last commit: waits to put, seqs to
        # delete, and whether an old-layout list must be deleted
        self._added: dict[int, MessageWait] = {}
        self._removed: set[int] = set()
        self._legacy = False

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[MessageWait]:
        """All waits in registration order."""
        waits = [w for ws in self._by_instance.values() for w in ws]
        return iter(sorted(waits, key=_seq_of))

    # -- registration and removal ------------------------------------------

    def register(
        self,
        instance_id: str,
        token_id: str,
        name: str,
        correlation: Any,
        match_any: bool,
        **target: Any,
    ) -> MessageWait:
        """Add a wait; ``target`` is ``node_id``/``is_activity`` or
        ``race_gateway``/``race_event``."""
        self._seq += 1
        wait = MessageWait(
            self._seq, instance_id, token_id, name, correlation, match_any, **target
        )
        self._insert(wait)
        self._added[wait.seq] = wait
        return wait

    def _insert(self, wait: MessageWait) -> None:
        key = _index_key(wait)
        if key is None:
            self._unkeyed.setdefault(wait.name, {})[wait.seq] = wait
        else:
            self._keyed.setdefault(key, []).append(wait)
        self._by_instance.setdefault(wait.instance_id, []).append(wait)
        self._count += 1

    def discard(self, wait: MessageWait) -> None:
        """Remove one wait (a no-op when it is already gone)."""
        mine = self._by_instance.get(wait.instance_id)
        if mine is None or wait not in mine:
            return
        mine.remove(wait)
        if not mine:
            del self._by_instance[wait.instance_id]
        key = _index_key(wait)
        if key is None:
            bucket = self._unkeyed[wait.name]
            del bucket[wait.seq]
            if not bucket:
                del self._unkeyed[wait.name]
        else:
            waits = self._keyed[key]
            waits.remove(wait)
            if not waits:
                del self._keyed[key]
        self._count -= 1
        if self._added.pop(wait.seq, None) is None:
            self._removed.add(wait.seq)

    def release(self, instance_id: str, token_id: str) -> None:
        """Remove every wait of one token (delivery elsewhere, cancellation)."""
        for wait in self.of_token(instance_id, token_id):
            self.discard(wait)

    # -- lookups -------------------------------------------------------------

    def candidates(self, name: str, correlation: Any) -> list[MessageWait]:
        """Waits a publish of ``(name, correlation)`` matches, first-registered
        first.  A snapshot: callers may discard waits while iterating."""
        unkeyed = self._unkeyed.get(name)
        key = _hashable((name, correlation))
        keyed = self._keyed.get(key) if key is not None else None
        if keyed and unkeyed:
            merged = heapq.merge(keyed, unkeyed.values(), key=_seq_of)
        elif keyed:
            merged = keyed
        elif unkeyed:
            merged = unkeyed.values()
        else:
            return []
        return [w for w in merged if w.match_any or w.correlation == correlation]

    def of_instance(self, instance_id: str) -> list[MessageWait]:
        """One instance's waits in registration order (a snapshot)."""
        return list(self._by_instance.get(instance_id, ()))

    def of_token(self, instance_id: str, token_id: str) -> list[MessageWait]:
        """One token's waits in registration order (a snapshot)."""
        return [
            w for w in self._by_instance.get(instance_id, ())
            if w.token_id == token_id
        ]

    # -- persistence -----------------------------------------------------------

    @property
    def has_changes(self) -> bool:
        return bool(self._added or self._removed or self._legacy)

    def pending_records(self) -> int:
        """Store operations the next :meth:`write` performs."""
        return len(self._added) + len(self._removed) + (1 if self._legacy else 0)

    def write(self, store: KeyValueStore) -> None:
        """Put new waits and delete gone ones (inside the commit transaction)."""
        for wait in self._added.values():
            store.put(wait.key, wait.to_dict())
        for seq in sorted(self._removed):
            store.delete(_record_key(seq))
        if self._legacy:
            store.delete(LEGACY_KEY)

    def clear_changes(self) -> None:
        """Forget the tracked changes (after the commit succeeded)."""
        self._added.clear()
        self._removed.clear()
        self._legacy = False

    @classmethod
    def load(cls, store: KeyValueStore) -> "MessageWaits":
        """The waits persisted in ``store``, in registration order.

        An old-layout ``engine/message_waits`` list is imported after the
        records, numbered in list order, and left as pending changes, so
        the next commit rewrites it as records and deletes the list.
        """
        waits = cls()
        records = sorted(
            (MessageWait.from_dict(raw) for _, raw in store.scan(PREFIX)), key=_seq_of
        )
        for wait in records:
            waits._insert(wait)
        waits._seq = records[-1].seq if records else 0
        legacy = store.get(LEGACY_KEY, None)
        if legacy is not None:
            for raw in legacy:
                waits._seq += 1
                wait = MessageWait.from_dict(raw, seq=waits._seq)
                waits._insert(wait)
                waits._added[wait.seq] = wait
            waits._legacy = True
        return waits


def _index_key(wait: MessageWait) -> tuple[str, Any] | None:
    """The wait's ``(name, correlation)`` index key; None for the per-name
    bucket (``match_any``, or a correlation that cannot be hashed)."""
    return None if wait.match_any else _hashable((wait.name, wait.correlation))


def _hashable(key: tuple[str, Any]) -> tuple[str, Any] | None:
    """``key`` when it can index a dict, else ``None`` (e.g. a list)."""
    try:
        hash(key)
    except TypeError:
        return None
    return key
