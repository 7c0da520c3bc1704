"""Spans recorded from outside the program, and the per-layer budget.

The traced run wraps the public methods of each layer (and subclasses
the durable store) so that every call records a span: its name, start,
end, and the span that caused it.  Spans of one client command share the
index of that command's root span.  They are kept in memory in flat
arrays and written out when the benchmark ends.

Bookkeeping that is not the program's own work (encoding a stored value
a second time to tally its bytes) runs on *hidden* time: :meth:`Tracer.now`
subtracts it, so it is charged to no span.
"""

from __future__ import annotations

import os
import time
from array import array
from typing import Any, Callable

import numpy as np

from repro.storage.kvstore import DurableKV
from repro.storage.serializers import json_encode

#: layer of a span, by the first part of its name
LAYER_OF = {
    "engine": "engine",
    "worklist": "worklist",
    "bus": "services",
    "services": "services",
    "storage": "storage",
    "history": "history",
    "views": "views",
    "cluster": "cluster",
}
LAYERS = ("engine", "flush", "worklist", "services", "storage", "history", "views", "cluster")
#: root spans of client write commands: layer budgets count only spans
#: under them (not reads, set-up or recovery)
DISPATCH_ROOTS = ("engine.dispatch.", "cluster.dispatch.")
#: key prefixes whose second path segment names a family of its own
_NESTED_FAMILIES = ("engine", "view", "cluster")


def key_family(key: str) -> str:
    """``instance/x-1`` -> ``instance``; ``engine/meta`` -> ``engine.meta``."""
    parts = key.split("/", 2)
    if parts[0] in _NESTED_FAMILIES and len(parts) > 1:
        return f"{parts[0]}.{parts[1]}"
    return parts[0]


class Tracer:
    """In-memory span recorder with parent tracking (one client thread)."""

    def __init__(self) -> None:
        self._name_ids: dict[str, int] = {}
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.hidden = 0.0
        self.bytes_by_family: dict[str, int] = {}

    def now(self) -> float:
        return time.perf_counter() - self.hidden

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        stack = self._stack
        if stack:
            parent = stack[-1]
            self.parent.append(parent)
            self.root.append(self.root[parent])
        else:
            self.parent.append(-1)
            self.root.append(index)
        self.span_name.append(name_id)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter() - self.hidden)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter() - self.hidden
        # pop through any span an exception left open below this one
        stack = self._stack
        while stack and stack.pop() != index:
            pass

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str | None = None,
        name_of: Callable[..., str] | None = None,
    ) -> None:
        """Replace ``obj.attr`` by a spanning wrapper (once per object:
        the cluster's shards share one allocator)."""
        fn = getattr(obj, attr)
        if getattr(fn, "traced_as", None) is None:
            setattr(obj, attr, self.spanned(fn, name or attr, name_of))

    def spanned(
        self, fn: Callable, name: str, name_of: Callable[..., str] | None = None
    ) -> Callable:
        """``fn`` wrapped to record a span named ``name`` (or ``name_of(*args)``)."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer.open(name if name_of is None else name_of(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        traced.traced_as = name
        return traced

    def tally(self, key: str, value: Any) -> None:
        """Count a stored value's encoded bytes under its key family (hidden)."""
        started = time.perf_counter()
        family = key_family(key)
        size = len(key) + (0 if value is None else len(json_encode(value)))
        self.bytes_by_family[family] = self.bytes_by_family.get(family, 0) + size
        self.hidden += time.perf_counter() - started

    # -- aggregation -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "root": np.frombuffer(self.root, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def budget(self) -> dict[str, Any]:
        """Per-name calls/inclusive seconds and per-layer self time.

        Self time is a span's duration minus its children's durations.
        Layer totals count only spans under client write commands; the
        transaction span's self time (the engine encoding records between
        ``begin`` and ``commit``) is the ``flush`` layer.
        """
        a = self.arrays()
        count = len(a["start"])
        layer_self = dict.fromkeys(LAYERS, 0.0)
        result: dict[str, Any] = {"calls": {}, "seconds": {}, "self": {}, "layer_self": layer_self}
        if count == 0:
            return result
        duration = a["end"] - a["start"]
        child = np.zeros(count)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], duration[has_parent])
        own = duration - child
        names = self.names
        is_root_cmd = np.array([n.startswith(DISPATCH_ROOTS) for n in names], dtype=bool)
        under_cmd = is_root_cmd[a["name"][a["root"]]]
        per_name_calls = np.bincount(a["name"], minlength=len(names))
        per_name_seconds = np.bincount(a["name"], weights=duration, minlength=len(names))
        per_name_self = np.bincount(
            a["name"][under_cmd], weights=own[under_cmd], minlength=len(names)
        )
        for name_id, name in enumerate(names):
            result["calls"][name] = int(per_name_calls[name_id])
            result["seconds"][name] = float(per_name_seconds[name_id])
            result["self"][name] = float(per_name_self[name_id])
            layer = "flush" if name == "storage.txn" else LAYER_OF[name.split(".", 1)[0]]
            layer_self[layer] += float(per_name_self[name_id])
        return result

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class TracedKV(DurableKV):
    """A :class:`DurableKV` that spans its public operations.

    Also records the open time (snapshot load + journal replay), journal
    bytes per commit, and stored bytes per key family.
    """

    def __init__(self, directory: str, sync_writes: bool, tracer: Tracer) -> None:
        started = time.perf_counter()
        super().__init__(directory, sync_writes=sync_writes)
        self.open_s = time.perf_counter() - started
        self.tracer = tracer
        self.commits = 0
        self.journal_bytes = 0
        self._txn: int | None = None

    def put(self, key: str, value: Any) -> None:
        index = self.tracer.open("storage.put")
        try:
            super().put(key, value)
        finally:
            self.tracer.close(index)
        self.tracer.tally(key, value)

    def delete(self, key: str) -> bool:
        index = self.tracer.open("storage.delete")
        try:
            existed = super().delete(key)
        finally:
            self.tracer.close(index)
        self.tracer.tally(key, None)
        return existed

    def begin(self) -> None:
        super().begin()
        # the transaction span stays open until commit/rollback: the puts
        # nest under it, and its self time is the caller's record encoding
        self._txn = self.tracer.open("storage.txn")

    def commit(self) -> None:
        before = self.journal_size
        index = self.tracer.open("storage.commit")
        try:
            super().commit()
        finally:
            self.tracer.close(index)
            self._end_txn()
        self.commits += 1
        self.journal_bytes += self.journal_size - before

    def rollback(self) -> None:
        try:
            super().rollback()
        finally:
            self._end_txn()

    def _end_txn(self) -> None:
        if self._txn is not None:
            self.tracer.close(self._txn)
            self._txn = None

    def sync(self) -> None:
        index = self.tracer.open("storage.sync")
        try:
            super().sync()
        finally:
            self.tracer.close(index)


def instrument_engine(tracer: Tracer, engine: Any) -> None:
    """Span the public entry points of one engine's layers."""
    tracer.wrap(engine, "dispatch", name_of=lambda cmd: f"engine.dispatch.{type(cmd).__name__}")
    tracer.wrap(engine, "recover", "engine.recover")
    tracer.wrap(engine, "find_instances", "engine.query.find_instances")
    # the engine's message-wait matching runs as a bus subscriber, inside
    # ``bus.publish``: span it apart so the budget charges it to the engine
    subscribers = engine.bus._subscribers
    for index, subscriber in enumerate(subscribers):
        if subscriber == engine._on_bus_message:
            subscribers[index] = tracer.spanned(subscriber, "engine.match")
    worklist = engine.worklist
    tracer.wrap(worklist, "create_item", "worklist.create")
    tracer.wrap(worklist, "queue_lengths", "worklist.queue_lengths")
    tracer.wrap(worklist, "start", "worklist.start")
    tracer.wrap(worklist, "complete", "worklist.complete")
    tracer.wrap(worklist.allocator, "choose", "worklist.allocator.choose")
    tracer.wrap(engine.bus, "publish", "bus.publish")
    tracer.wrap(engine.invoker, "invoke", "services.invoke")
    tracer.wrap(engine.history, "record", "history.record")
    tracer.wrap(engine.history.store, "append", "storage.eventstore.append")
    if engine.views is not None:
        tracer.wrap(engine.views, "drain", "views.drain")
        tracer.wrap(engine.views, "recover", "views.recover")


def instrument_cluster(tracer: Tracer, cluster: Any) -> None:
    """Span the cluster facade, its read side, and every shard."""
    for method, command in (
        ("start_instance", "StartInstance"),
        ("start_work_item", "StartWorkItem"),
        ("complete_work_item", "CompleteWorkItem"),
        ("correlate_message", "CorrelateMessage"),
    ):
        tracer.wrap(cluster, method, f"cluster.dispatch.{command}")
    tracer.wrap(cluster, "recover", "cluster.recover")
    for method in ("find_instances", "work_items", "instances"):
        tracer.wrap(cluster, method, f"cluster.query.{method}")
    # a business-key lookup goes to its home shard's engine, not the views
    for method in ("work_items", "instances"):
        tracer.wrap(cluster.views, method, f"views.query.{method}")
    for shard in cluster.shards:
        instrument_engine(tracer, shard)
