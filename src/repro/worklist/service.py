"""The worklist service: queues, lifecycle operations, deadlines.

The engine calls :meth:`WorklistService.create_item` when a token reaches a
user task and registers a completion listener to resume the token.  People
(or the simulator) interact through ``claim``/``start``/``complete``.

Lifecycle mutations are serialized by a re-entrant lock.  An engine binds
its dispatch lock here (:meth:`WorklistService.bind_lock`) so direct
worklist calls from foreign threads queue behind the running command
instead of interleaving with it; calls made from inside a dispatched
command re-enter the same lock without deadlocking.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import TYPE_CHECKING, Any, Callable

from repro.clock import Clock, WallClock
from repro.history.audit import HistoryService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
from repro.history.events import EventTypes
from repro.worklist.allocation import Allocator, OfferOnlyAllocator
from repro.worklist.errors import UnknownWorkItemError, WorklistError
from repro.worklist.items import WorkItem, WorkItemState
from repro.worklist.resources import OrganizationalModel

CompletionListener = Callable[[WorkItem], None]


class WorklistService:
    """Work-item routing and lifecycle management."""

    def __init__(
        self,
        organization: OrganizationalModel | None = None,
        allocator: Allocator | None = None,
        clock: Clock | None = None,
        history: HistoryService | None = None,
        obs: "Observability | None" = None,
        id_namespace: str = "",
    ) -> None:
        """``id_namespace`` (e.g. ``"s2"``) is spliced into generated item
        ids (``wi-s2-7``) so several services — one per cluster shard —
        can coexist without id collisions."""
        # `is None` checks: an empty OrganizationalModel is falsy (__len__)
        self.organization = (
            organization if organization is not None else OrganizationalModel()
        )
        self.allocator = allocator if allocator is not None else OfferOnlyAllocator()
        self.clock = clock if clock is not None else WallClock()
        self.history = history
        self._obs = obs
        self._h_route = None if obs is None else obs.registry.histogram(
            "worklist.route_seconds"
        )
        self._g_open = None if obs is None else obs.registry.gauge(
            "worklist.open_items"
        )
        self._items: dict[str, WorkItem] = {}
        self._completion_listeners: list[CompletionListener] = []
        self._cancellation_listeners: list[CompletionListener] = []
        self._id_counter = itertools.count(1)
        self._id_prefix = f"wi-{id_namespace}-" if id_namespace else "wi-"
        self._lock = threading.RLock()
        # differential write-set for the engine's incremental persistence:
        # ids of items created or mutated since the last flush (items are
        # never deleted, so there is no removed-set)
        self._dirty: set[str] = set()
        # live open-item counter (create +1, complete/cancel -1): O(1)
        # answer to "how loaded is this worklist" for cluster status —
        # escalation reoffers don't close items, so no other transition
        # moves it
        self._open_count = 0
        # open items per resource they are allocated to, kept by the same
        # transitions that move an item in or out of a queue (allocate,
        # claim, delegate, escalation reoffer, complete, cancel), so that
        # every allocation reads it without a scan of all items
        self._queue_counts: dict[str, int] = {}

    # -- wiring -----------------------------------------------------------------

    def bind_lock(self, lock: threading.RLock) -> None:
        """Share the caller's (engine's) serialization lock."""
        self._lock = lock

    def on_completion(self, listener: CompletionListener) -> None:
        """Register a callback fired on every completed item (engine hook)."""
        self._completion_listeners.append(listener)

    def on_cancellation(self, listener: CompletionListener) -> None:
        """Register a callback fired on every cancelled item."""
        self._cancellation_listeners.append(listener)

    def _record(self, item: WorkItem, event_type: str, **data: Any) -> None:
        if self.history is not None:
            self.history.record(
                item.instance_id,
                event_type,
                work_item_id=item.id,
                node_id=item.node_id,
                role=item.role,
                **data,
            )

    # -- creation & routing -------------------------------------------------------

    def create_item(
        self,
        instance_id: str,
        node_id: str,
        role: str,
        priority: int = 0,
        due_seconds: float | None = None,
        data: dict[str, Any] | None = None,
        item_id: str | None = None,
    ) -> WorkItem:
        """Create, then offer/allocate a work item per the allocator."""
        with self._lock:
            now = self.clock.now()
            item = WorkItem(
                id=item_id or f"{self._id_prefix}{next(self._id_counter)}",
                instance_id=instance_id,
                node_id=node_id,
                role=role,
                priority=priority,
                created_at=now,
                due_at=None if due_seconds is None else now + due_seconds,
                data=dict(data or {}),
            )
            if item.id in self._items:
                raise WorklistError(f"duplicate work item id {item.id!r}")
            self._items[item.id] = item
            self._dirty.add(item.id)
            self._open_count += 1
            if self._g_open is not None:
                self._g_open.inc()
            self._record(item, EventTypes.WORKITEM_CREATED, priority=priority)
            if self._h_route is None:
                self._route(item)
            else:
                started = time.perf_counter()
                self._route(item)
                self._h_route.observe(time.perf_counter() - started)
            return item

    def _route(self, item: WorkItem) -> None:
        now = self.clock.now()
        candidates = self.organization.with_role(item.role)
        excluded = set(item.data.get("excluded_resources", ()))
        if excluded:
            candidates = [r for r in candidates if r.id not in excluded]
        chosen = self.allocator.choose(item, candidates, self.queue_lengths())
        if chosen is None:
            item.offer(now)
            self._record(item, EventTypes.WORKITEM_OFFERED)
        else:
            item.offer(now)
            item.allocate(chosen.id, now)
            self._requeue(None, item)
            self._record(item, EventTypes.WORKITEM_ALLOCATED, resource=chosen.id)

    # -- queries ----------------------------------------------------------------

    def item(self, item_id: str) -> WorkItem:
        """Look up an item; raises :class:`UnknownWorkItemError`."""
        try:
            return self._items[item_id]
        except KeyError:
            raise UnknownWorkItemError(f"unknown work item {item_id!r}") from None

    def items(self, state: WorkItemState | None = None) -> list[WorkItem]:
        """All items (optionally filtered by state), by creation order."""
        values = list(self._items.values())
        if state is not None:
            values = [i for i in values if i.state is state]
        return values

    def queue_of(self, resource_id: str) -> list[WorkItem]:
        """Open items allocated to (or started by) one resource,
        highest priority first, then oldest first."""
        mine = [
            i
            for i in self._items.values()
            if i.allocated_to == resource_id and not i.state.is_terminal
        ]
        return sorted(mine, key=lambda i: (-i.priority, i.created_at))

    def offered_for_role(self, role: str) -> list[WorkItem]:
        """Unclaimed items in a role queue, highest priority first."""
        offered = [
            i
            for i in self._items.values()
            if i.role == role and i.state is WorkItemState.OFFERED
        ]
        return sorted(offered, key=lambda i: (-i.priority, i.created_at))

    def offered_for_resource(self, resource_id: str) -> list[WorkItem]:
        """Union of role queues visible to one resource (minus items the
        resource is excluded from by separation of duties)."""
        resource = self.organization.get(resource_id)
        visible: list[WorkItem] = []
        for role in sorted(resource.roles):
            visible.extend(
                item
                for item in self.offered_for_role(role)
                if resource_id not in item.data.get("excluded_resources", ())
            )
        return sorted(visible, key=lambda i: (-i.priority, i.created_at))

    def queue_lengths(self) -> dict[str, int]:
        """Open (non-terminal) item count per resource (a copy; no scan)."""
        return dict(self._queue_counts)

    def _requeue(self, before: str | None, item: WorkItem) -> None:
        """Move one count from queue ``before`` (the resource holding
        ``item`` before a transition, or None) to the one holding it now."""
        after = _holder(item)
        if after == before:
            return
        counts = self._queue_counts
        if before is not None:
            left = counts[before] - 1
            if left:
                counts[before] = left
            else:
                del counts[before]
        if after is not None:
            counts[after] = counts.get(after, 0) + 1

    # -- lifecycle operations ------------------------------------------------------

    def claim(self, item_id: str, resource_id: str) -> WorkItem:
        """A resource pulls an offered item from its role queue.

        Rejected if the resource lacks the role or is excluded by a
        separation-of-duties constraint (``excluded_resources`` in the
        item's data).
        """
        with self._lock:
            item = self.item(item_id)
            resource = self.organization.get(resource_id)
            if not resource.has_role(item.role):
                raise WorklistError(
                    f"resource {resource_id!r} lacks role {item.role!r} "
                    f"for {item_id!r}"
                )
            if resource_id in item.data.get("excluded_resources", ()):
                raise WorklistError(
                    f"resource {resource_id!r} is excluded from {item_id!r} "
                    "(separation of duties)"
                )
            before = _holder(item)
            item.allocate(resource_id, self.clock.now())
            self._requeue(before, item)
            self._dirty.add(item.id)
            self._record(item, EventTypes.WORKITEM_ALLOCATED, resource=resource_id)
            return item

    def delegate(self, item_id: str) -> WorkItem:
        """Return an allocated item to its role queue."""
        with self._lock:
            item = self.item(item_id)
            before = _holder(item)
            item.reoffer(self.clock.now())
            self._requeue(before, item)
            self._dirty.add(item.id)
            self._record(item, EventTypes.WORKITEM_OFFERED, delegated=True)
            return item

    def start(self, item_id: str) -> WorkItem:
        """The allocated resource begins work."""
        with self._lock:
            item = self.item(item_id)
            item.start(self.clock.now())
            self._dirty.add(item.id)
            self._record(
                item, EventTypes.WORKITEM_STARTED, resource=item.allocated_to
            )
            return item

    def complete(self, item_id: str, result: dict[str, Any] | None = None) -> WorkItem:
        """Finish an item; fires completion listeners (the engine resumes)."""
        with self._lock:
            item = self.item(item_id)
            before = _holder(item)
            item.complete(result, self.clock.now())
            self._requeue(before, item)
            self._dirty.add(item.id)
            self._open_count -= 1
            if self._g_open is not None:
                self._g_open.dec()
            self._record(
                item,
                EventTypes.WORKITEM_COMPLETED,
                resource=item.allocated_to,
                result_keys=sorted((result or {}).keys()),
            )
            record_completion = getattr(self.allocator, "record_completion", None)
            if record_completion is not None and item.allocated_to:
                record_completion(item.instance_id, item.allocated_to)
            for listener in self._completion_listeners:
                listener(item)
            return item

    def cancel(self, item_id: str) -> WorkItem:
        """Withdraw a live item (engine calls this on interrupts)."""
        with self._lock:
            item = self.item(item_id)
            before = _holder(item)
            item.cancel(self.clock.now())
            self._requeue(before, item)
            self._dirty.add(item.id)
            self._open_count -= 1
            if self._g_open is not None:
                self._g_open.dec()
            self._record(item, EventTypes.WORKITEM_CANCELLED)
            for listener in self._cancellation_listeners:
                listener(item)
            return item

    def cancel_for_instance(self, instance_id: str) -> int:
        """Cancel every live item of one instance; returns the count."""
        with self._lock:
            cancelled = 0
            for item in list(self._items.values()):
                if item.instance_id == instance_id and not item.state.is_terminal:
                    self.cancel(item.id)
                    cancelled += 1
            return cancelled

    # -- deadlines -----------------------------------------------------------------

    def check_deadlines(self) -> list[WorkItem]:
        """Escalate every overdue live item.

        Escalation policy: bump priority and return allocated-but-unstarted
        items to their role queue so a less-loaded resource can claim them.
        Items already started are only bumped.  Returns escalated items.
        """
        with self._lock:
            now = self.clock.now()
            escalated = []
            for item in self._items.values():
                if not item.is_overdue(now):
                    continue
                item.priority += 1
                item.escalations += 1
                item.due_at = None  # one escalation per deadline
                self._dirty.add(item.id)
                if item.state is WorkItemState.ALLOCATED:
                    before = _holder(item)
                    item.reoffer(now)
                    self._requeue(before, item)
                self._record(
                    item, EventTypes.WORKITEM_ESCALATED, new_priority=item.priority
                )
                escalated.append(item)
            return escalated

    # -- persistence hooks -----------------------------------------------------------

    @property
    def open_count(self) -> int:
        """Open (non-terminal) items, O(1) — no scan of ``items()``."""
        return self._open_count

    def dirty_item_ids(self) -> tuple[str, ...]:
        """Ids of items changed since :meth:`clear_dirty` (sorted).

        The set is left intact so a failed commit can retry — call
        :meth:`clear_dirty` only after the write succeeded.
        """
        return tuple(sorted(self._dirty))

    def clear_dirty(self) -> None:
        """Forget the differential write-set (after a successful commit)."""
        self._dirty.clear()

    def export_items(self) -> list[dict[str, Any]]:
        """Serializable snapshot of all items (engine persistence)."""
        return [item.to_dict() for item in self._items.values()]

    def import_items(self, raw_items: list[dict[str, Any]]) -> None:
        """Restore items from a snapshot (engine recovery)."""
        for raw in raw_items:
            item = WorkItem.from_dict(raw)
            self._items[item.id] = item
        self._open_count = 0
        self._queue_counts = {}
        for item in self._items.values():
            if not item.state.is_terminal:
                self._open_count += 1
                self._requeue(None, item)
        # keep generated ids unique after recovery: the counter is the
        # trailing segment (``wi-7`` and namespaced ``wi-s2-7`` alike)
        numeric = [
            int(i.id.rsplit("-", 1)[-1]) for i in self._items.values()
            if i.id.startswith(self._id_prefix)
            and i.id.rsplit("-", 1)[-1].isdigit()
        ]
        if numeric:
            self._id_counter = itertools.count(max(numeric) + 1)


def _holder(item: WorkItem) -> str | None:
    """The resource whose queue counts ``item``: its allocatee while open."""
    if item.state.is_terminal:
        return None
    return item.allocated_to or None
