"""The three workloads: set-up, timed phases, recovery, and output checks.

Each workload runs in *rounds* on a fresh store.  A round is

1. set-up (timed as one ``setup_s`` sample): store creation, engine
   construction, organisation, services and deploy;
2. ``admit`` (timed): the round's instances are started, then the scans'
   answers are checked against a full filter (untimed);
3. ``probe`` (single-engine workloads, first round of a run only): point
   lookups and scans over the standing state, timed per query;
4. a recovery checkpoint (first round of a run only): close the stores,
   reopen them and ``recover()``, ``recoveries`` times, each checked equal
   to the state before the close;
5. ``drain`` (timed): the rest of the round's commands;
6. the output checks, then the round's disk footprint.

One client thread drives every round as a closed loop.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import ProcessEngine
from repro.clock import VirtualClock
from repro.cluster import ShardedEngine
from repro.engine.instance import InstanceState
from repro.history.audit import HistoryService
from repro.services.registry import ServiceRegistry
from repro.storage.eventstore import EventStore
from repro.storage.kvstore import DurableKV
from repro.worklist.allocation import ShortestQueueAllocator
from repro.worklist.items import WorkItemState
from repro.worklist.resources import OrganizationalModel

import generate
import processes
from spans import Tracer, TracedKV, instrument_cluster, instrument_engine

#: client calls timed per kind.  ``item_start`` (a user picking up a work
#: item) and ``pickup_start`` (a carrier booking on the cluster) are timed
#: for the traced run's dispatch total but not reported: ``start`` times
#: the port's container starts alone, so its median is not taken over a
#: half-and-half mix of two processes of different cost
LATENCY_KINDS = ("start", "item_start", "pickup_start", "complete", "correlate", "lookup", "scan")
WRITE_KINDS = ("start", "item_start", "pickup_start", "complete", "correlate")


@dataclass
class Recorder:
    """Latency samples and the attempted/failed tally of one run."""

    now: Callable[[], float]
    latency: dict[str, list[float]] = field(
        default_factory=lambda: {kind: [] for kind in LATENCY_KINDS}
    )
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def call(self, kind: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run one client command; time it under ``kind`` when it succeeds."""
        self.attempted += 1
        started = self.now()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed command is a measured outcome
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self.latency[kind].append(self.now() - started)
        return result


def directory_bytes(path: str) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


def open_items(items) -> dict[str, tuple[str, str | None]]:
    return {
        item.id: (item.state.value, item.allocated_to)
        for item in items
        if not item.state.is_terminal
    }


def last_seq(engine: ProcessEngine) -> int:
    log = engine.dispatch_history(limit=1)
    return log[-1]["seq"] if log else 0


# -- single-engine workloads ---------------------------------------------------


@dataclass
class EngineSystem:
    engine: ProcessEngine
    store: DurableKV
    history: EventStore
    directory: str
    context: Any

    @property
    def open_s(self) -> float:
        return getattr(self.store, "open_s", 0.0)


class SingleEngineWorkload:
    """Shared plumbing of the workloads that run one ``ProcessEngine``."""

    name = ""
    sync_writes = False
    commit_interval = 1
    definitions: tuple = ()
    #: (work-item state, instance state) of the probe's scans
    scan_states: tuple[WorkItemState, InstanceState] = ()

    def __init__(self, size: int, tracer: Tracer | None = None) -> None:
        self.size = size
        self.tracer = tracer

    # set-up and recovery

    def open(self, directory: str, context: Any, fresh: bool) -> EngineSystem:
        if self.tracer is None:
            store = DurableKV(os.path.join(directory, "kv"), sync_writes=self.sync_writes)
        else:
            store = TracedKV(os.path.join(directory, "kv"), self.sync_writes, self.tracer)
        history_store = EventStore(path=os.path.join(directory, "history.log"))
        clock = VirtualClock(0)
        engine = ProcessEngine(
            clock=clock,
            store=store,
            history=HistoryService(store=history_store, clock=clock),
            allocator=ShortestQueueAllocator(),
            commit_interval=self.commit_interval,
        )
        processes.add_port_staff(engine.organization)
        self.register_services(engine.services, context)
        system = EngineSystem(engine, store, history_store, directory, context)
        if fresh:
            for definition in self.definitions:
                engine.deploy(definition)
        if self.tracer is not None:
            instrument_engine(self.tracer, engine)
        if not fresh:
            engine.recover()
        return system

    def register_services(self, registry: ServiceRegistry, context: Any) -> None:
        raise NotImplementedError

    def close(self, system: EngineSystem) -> None:
        system.engine.flush()
        system.store.close()
        system.history.close()

    def snapshot(self, system: EngineSystem) -> dict[str, Any]:
        engine = system.engine
        return {
            "instances": {i.id: i.state.value for i in engine.instances()},
            "open_items": open_items(engine.worklist.items()),
            "dispatch_seq": last_seq(engine),
        }

    def counters(self, system: EngineSystem) -> dict[str, float]:
        """Counts since the system was opened (summed across reopens)."""
        return engine_counters(system.engine, system.engine.obs.registry, [system.store])

    def finish(self, system: EngineSystem) -> dict[str, float]:
        """Close the system; report work items kept in memory and history on disk."""
        self.close(system)
        return {
            "worklist.items_retained": len(system.engine.worklist.items()),
            "history.bytes_written": os.path.getsize(os.path.join(system.directory, "history.log")),
        }

    # the read probe

    def probe(self, system: EngineSystem, keys: list[str], rec: Recorder, rng: random.Random) -> None:
        engine = system.engine
        item_state, instance_state = self.scan_states
        for _ in range(len(keys)):
            rec.call("lookup", engine.find_instances, business_key=rng.choice(keys))
        for _ in range(len(keys)):
            rec.call("scan", _engine_scan, engine, item_state, instance_state)

    # shared output checks

    def check_scans(self, system: EngineSystem, inputs: Any, settled: bool) -> list[str]:
        """The state-index scans equal a full filter and hold the expected counts."""
        engine = system.engine
        item_state, instance_state = self.scan_states
        return compare_scans(
            (item_state, engine.worklist.items(item_state), engine.worklist.items()),
            (instance_state, engine.instances(instance_state), engine.instances()),
            self.expected_scans(inputs, settled),
        )

    def check_quiescent(self, system: EngineSystem) -> list[str]:
        engine = system.engine
        errors = []
        if engine.worklist.open_count:
            errors.append(f"{engine.worklist.open_count} work items left open")
        engine.flush()
        waits = engine.store.get("engine/message_waits", [])
        if waits:
            errors.append(f"{len(waits)} message waits left open")
        return errors


def _engine_scan(engine: ProcessEngine, item_state, instance_state) -> int:
    return len(engine.worklist.items(item_state)) + len(engine.instances(instance_state))


class PortBacklog(SingleEngineWorkload):
    """The paper's port terminal: a backlog of N containers, then cleared."""

    name = "port_backlog"
    commit_interval = 32
    recoveries = 2
    definitions = (processes.CUSTOMS, processes.TERMINAL)
    scan_states = (WorkItemState.ALLOCATED, InstanceState.RUNNING)

    def inputs(self, rng: random.Random) -> generate.PortInputs:
        return generate.port_inputs(rng, self.size)

    def context(self, inputs: generate.PortInputs) -> None:
        return None

    def register_services(self, registry: ServiceRegistry, context: Any) -> None:
        processes.register_port(registry)

    def keys(self, inputs: generate.PortInputs) -> list[str]:
        return [c.container_id for c in inputs.containers]

    def top_level(self, inputs: generate.PortInputs) -> int:
        return len(inputs.containers)

    def expected_scans(self, inputs: generate.PortInputs, settled: bool) -> tuple[int, int]:
        """(allocated items, running instances): after admission, one
        clearance item per dangerous container; every container running,
        and the customs child of every other one."""
        if settled:
            return (0, 0)
        dangerous = sum(c.dangerous for c in inputs.containers)
        return (dangerous, 2 * len(inputs.containers) - dangerous)

    def admit(self, system: EngineSystem, inputs: generate.PortInputs, rec: Recorder, rng: random.Random) -> None:
        start = system.engine.start_instance
        for container in inputs.containers:
            rec.call(
                "start", start, "container_handling",
                {"manifest": container.manifest}, business_key=container.container_id,
            )

    def drain(self, system: EngineSystem, inputs: generate.PortInputs, rec: Recorder, rng: random.Random) -> None:
        engine = system.engine
        work_through(engine, engine.worklist.items, "dg_clearance", {"dg_approved": True}, rec)
        containers = inputs.containers
        for index in inputs.verdict_order:
            container = containers[index]
            rec.call(
                "correlate", engine.correlate_message,
                verdict_message(container), container.container_id,
            )
        work_through(engine, engine.worklist.items, "physical_inspection", {"seal_intact": True}, rec)
        work_through(engine, engine.worklist.items, "yard_move", {}, rec)

    def check(self, system: EngineSystem, inputs: generate.PortInputs) -> list[str]:
        engine = system.engine
        errors = check_containers(
            lambda cid: engine.find_instances(
                business_key=cid, definition_key="container_handling"
            ),
            inputs,
        )
        errors += self.check_scans(system, inputs, settled=True)
        return errors + self.check_quiescent(system)


class OrderAutocommit(SingleEngineWorkload):
    """Order fulfilment straight through, one transaction and fsync per command."""

    name = "order_autocommit"
    recoveries = 2
    sync_writes = True
    commit_interval = 1
    definitions = (processes.ORDER,)
    scan_states = (WorkItemState.ALLOCATED, InstanceState.COMPLETED)

    def inputs(self, rng: random.Random) -> generate.OrderInputs:
        return generate.order_inputs(rng, self.size, prefix="ORD-")

    def context(self, inputs: generate.OrderInputs) -> processes.OrderServices:
        return processes.OrderServices(inputs.stock, inputs.payment_failures)

    def register_services(self, registry: ServiceRegistry, context: Any) -> None:
        context.register(registry)

    def keys(self, inputs: generate.OrderInputs) -> list[str]:
        return [o.order_no for o in inputs.orders]

    def top_level(self, inputs: generate.OrderInputs) -> int:
        return len(inputs.orders)

    def expected_scans(self, inputs: generate.OrderInputs, settled: bool) -> tuple[int, int]:
        """(allocated items, completed instances): orders never wait."""
        return (0, len(inputs.orders))

    def admit(self, system: EngineSystem, inputs: generate.OrderInputs, rec: Recorder, rng: random.Random) -> None:
        start = system.engine.start_instance
        for order in inputs.orders:
            rec.call(
                "start", start, "order",
                {
                    "order_no": order.order_no,
                    "sku": order.sku,
                    "quantity": order.quantity,
                    "unit_price": order.unit_price,
                },
                business_key=order.order_no,
            )

    def drain(self, system: EngineSystem, inputs: generate.OrderInputs, rec: Recorder, rng: random.Random) -> None:
        """Orders run straight through at start: nothing is left to drain."""

    def check(self, system: EngineSystem, inputs: generate.OrderInputs) -> list[str]:
        engine = system.engine
        errors = []
        stock = dict(inputs.stock)
        for order in inputs.orders:
            found = engine.find_instances(business_key=order.order_no)
            if len(found) != 1:
                errors.append(f"order {order.order_no}: {len(found)} instances")
                continue
            instance = found[0]
            status = instance.variables.get("status")
            if instance.state is not InstanceState.COMPLETED or status != order.expected_status:
                errors.append(
                    f"order {order.order_no}: {instance.state.value}/{status}, "
                    f"expected completed/{order.expected_status}"
                )
            if order.expected_status == "shipped":
                stock[order.sku] -= order.quantity
        if system.context.stock != stock:
            errors.append("warehouse stock differs from the inventory oracle")
        errors += self.check_scans(system, inputs, settled=True)
        return errors + self.check_quiescent(system)


# -- the cluster workload -------------------------------------------------------


@dataclass
class ClusterSystem:
    cluster: ShardedEngine
    stores: list
    directory: str
    context: Any
    outbox_peak: list = field(default_factory=lambda: [0])

    @property
    def open_s(self) -> float:
        return sum(getattr(store, "open_s", 0.0) for store in self.stores)


class ClusterMixed:
    """Two shards: the port process plus a carrier pickup keyed on its own
    business key, with about four reads beside each write."""

    name = "cluster_mixed"
    shards = 2
    commit_interval = 32
    recoveries = 4
    definitions = (processes.CUSTOMS, processes.TERMINAL, processes.CARRIER_PICKUP)

    def __init__(self, size: int, tracer: Tracer | None = None) -> None:
        self.size = size
        self.tracer = tracer
        self._rng = random.Random(0)
        self._keys: list[str] = []

    def inputs(self, rng: random.Random) -> generate.PortInputs:
        return generate.port_inputs(rng, self.size)

    def context(self, inputs: generate.PortInputs) -> None:
        return None

    def keys(self, inputs: generate.PortInputs) -> list[str]:
        return [c.container_id for c in inputs.containers]

    def top_level(self, inputs: generate.PortInputs) -> int:
        return 2 * len(inputs.containers)

    def open(self, directory: str, context: Any, fresh: bool) -> ClusterSystem:
        stores: list = []

        def make_store(index: int) -> DurableKV:
            path = os.path.join(directory, f"shard-{index}")
            if self.tracer is None:
                store = DurableKV(path, sync_writes=False)
            else:
                store = TracedKV(path, False, self.tracer)
            stores.append(store)
            return store

        organization = OrganizationalModel()
        processes.add_port_staff(organization)
        registry = ServiceRegistry()
        processes.register_port(registry)
        cluster = ShardedEngine(
            self.shards,
            store_factory=make_store,
            clock=VirtualClock(0),
            organization=organization,
            allocator=ShortestQueueAllocator(),
            services=registry,
            commit_interval=self.commit_interval,
        )
        system = ClusterSystem(cluster, stores, directory, context)
        if fresh:
            for definition in self.definitions:
                cluster.deploy(definition)
        if self.tracer is not None:
            instrument_cluster(self.tracer, cluster)
            track_outbox_peak(self.tracer, cluster, system.outbox_peak)
        if not fresh:
            cluster.recover()
        return system

    def close(self, system: ClusterSystem) -> None:
        system.cluster.close()

    def snapshot(self, system: ClusterSystem) -> dict[str, Any]:
        cluster = system.cluster
        return {
            "instances": {i.id: i.state.value for i in cluster.instances()},
            "open_items": open_items(cluster.work_items()),
            "dispatch_seq": [last_seq(shard) for shard in cluster.shards],
        }

    def counters(self, system: ClusterSystem) -> dict[str, float]:
        cluster = system.cluster
        registry = cluster.obs.registry
        counts = engine_counters(cluster.shards[0], registry, system.stores)
        for shard in cluster.shards[1:]:
            for name, value in engine_counters(shard, None, []).items():
                counts[name] += value
        for index in range(self.shards):
            counts[f"cluster.dispatch.{index}.calls"] = registry.counter(
                f"cluster.shard.dispatches.{index}"
            ).value
            counts["cluster.lock_wait_s"] = counts.get("cluster.lock_wait_s", 0.0) + (
                registry.histogram(f"cluster.shard.lock_wait_seconds.{index}").sum
            )
        counts["cluster.forwards"] = registry.counter("cluster.message_forwards").value
        return counts

    def finish(self, system: ClusterSystem) -> dict[str, float]:
        """Close the cluster; shard history lives in memory, so none is on disk."""
        self.close(system)
        return {
            "worklist.items_retained": sum(len(s.worklist.items()) for s in system.cluster.shards),
            "history.bytes_written": 0,
        }

    def _reads(self, cluster: ShardedEngine, rec: Recorder) -> None:
        """Two point lookups of a container and one scan (two queries)
        beside each write."""
        keys, rng = self._keys, self._rng
        rec.call("lookup", cluster.find_instances, business_key=rng.choice(keys))
        rec.call("scan", _cluster_scan, cluster)
        rec.call("lookup", cluster.find_instances, business_key=rng.choice(keys))

    def admit(self, system: ClusterSystem, inputs: generate.PortInputs, rec: Recorder, rng: random.Random) -> None:
        cluster = system.cluster
        self._keys = []
        self._rng = rng
        for container in inputs.containers:
            cid = container.container_id
            rec.call(
                "start", cluster.start_instance, "container_handling",
                {"manifest": container.manifest}, business_key=cid,
            )
            self._keys.append(cid)
            self._reads(cluster, rec)
            rec.call(
                "pickup_start", cluster.start_instance, "carrier_pickup",
                {"container_id": cid}, business_key=container.booking,
            )
            self._reads(cluster, rec)

    def probe(self, system: ClusterSystem, keys: list[str], rec: Recorder, rng: random.Random) -> None:
        """Reads run beside the writes; there is no separate probe."""

    def expected_scans(self, inputs: generate.PortInputs, settled: bool) -> tuple[int, int]:
        """As on ``port_backlog``, plus every pickup running."""
        if settled:
            return (0, 0)
        dangerous = sum(c.dangerous for c in inputs.containers)
        return (dangerous, 3 * len(inputs.containers) - dangerous)

    def check_scans(self, system: ClusterSystem, inputs: generate.PortInputs, settled: bool) -> list[str]:
        """The views' scans equal a full filter over every shard and hold
        the expected counts (a stale merged answer shows at the end)."""
        cluster = system.cluster
        shards = cluster.shards
        return compare_scans(
            (
                WorkItemState.ALLOCATED,
                cluster.work_items(WorkItemState.ALLOCATED),
                [item for shard in shards for item in shard.worklist.items()],
            ),
            (
                InstanceState.RUNNING,
                cluster.instances(InstanceState.RUNNING),
                [instance for shard in shards for instance in shard.instances()],
            ),
            self.expected_scans(inputs, settled),
        )

    def drain(self, system: ClusterSystem, inputs: generate.PortInputs, rec: Recorder, rng: random.Random) -> None:
        cluster = system.cluster

        def reads() -> None:
            self._reads(cluster, rec)

        work_through(cluster, cluster.work_items, "dg_clearance", {"dg_approved": True}, rec, reads)
        containers = inputs.containers
        for index in inputs.verdict_order:
            container = containers[index]
            rec.call(
                "correlate", cluster.correlate_message,
                verdict_message(container), container.container_id,
            )
            reads()
        work_through(cluster, cluster.work_items, "physical_inspection", {"seal_intact": True}, rec, reads)
        work_through(cluster, cluster.work_items, "yard_move", {}, rec, reads)

    def check(self, system: ClusterSystem, inputs: generate.PortInputs) -> list[str]:
        cluster = system.cluster
        errors = check_containers(
            lambda cid: cluster.find_instances(
                business_key=cid, definition_key="container_handling"
            ),
            inputs,
        )
        for container in inputs.containers:
            found = cluster.find_instances(business_key=container.booking)
            if len(found) != 1:
                errors.append(f"pickup {container.container_id}: {len(found)} instances")
                continue
            pickup = found[0]
            status = pickup.variables.get("status")
            if pickup.state is not InstanceState.COMPLETED or status != container.customs_status:
                errors.append(
                    f"pickup {container.container_id}: {pickup.state.value}/{status}, "
                    f"expected completed/{container.customs_status}"
                )
        errors += self.check_scans(system, inputs, settled=True)
        status = cluster.status()
        if status["pending_forwards"]:
            errors.append(f"{status['pending_forwards']} cross-shard forwards pending")
        open_count = sum(shard["open_work_items"] for shard in status["per_shard"])
        if open_count:
            errors.append(f"{open_count} work items left open")
        cluster.flush()
        for index, shard in enumerate(cluster.shards):
            waits = shard.store.get("engine/message_waits", [])
            if waits:
                errors.append(f"shard {index}: {len(waits)} message waits left open")
        return errors


def _cluster_scan(cluster: ShardedEngine) -> int:
    return len(cluster.work_items(WorkItemState.ALLOCATED)) + len(
        cluster.instances(InstanceState.RUNNING)
    )


def track_outbox_peak(tracer: Tracer, cluster: ShardedEngine, peak: list) -> None:
    """Keep ``peak[0]`` at the most cross-shard forwards pending at once."""
    for shard in cluster.shards:
        enqueue = shard.enqueue_outbox_forward

        def counted(message: Any, _enqueue: Callable = enqueue) -> Any:
            record = _enqueue(message)
            started = tracer.now()
            pending = sum(len(s.outbox_records()) for s in cluster.shards)
            peak[0] = max(peak[0], pending)
            tracer.hidden += tracer.now() - started
            return record

        shard.enqueue_outbox_forward = counted


# -- shared steps and checks ------------------------------------------------------


def engine_counters(engine: ProcessEngine, registry: Any, stores: list) -> dict[str, float]:
    """One engine's work counts; registry-wide and store counts only when given."""
    counts = {
        "bus.published": engine.bus.published_count,
        "bus.delivered": engine.bus.delivered_count,
        "services.invoke.retries": engine.invoker.stats.retries,
        "storage.commits": sum(getattr(s, "commits", 0) for s in stores),
        "storage.journal_bytes": sum(getattr(s, "journal_bytes", 0) for s in stores),
        "engine.flush.commits": 0,
        "engine.flush.records_written": 0,
    }
    if registry is not None:
        for name in ("engine.flush.commits", "engine.flush.records_written"):
            counts[name] = registry.counter(name).value
    return counts


def verdict_message(container: generate.Container) -> str:
    return "customs_release" if container.verdict == "release" else "customs_inspection"


def work_through(
    engine: Any,
    list_items: Callable[[], list],
    node_id: str,
    result: dict[str, Any],
    rec: Recorder,
    after_each: Callable[[], None] | None = None,
) -> None:
    """Start and complete every open work item at ``node_id``."""
    pending = [
        item.id
        for item in list_items()
        if item.node_id == node_id and not item.state.is_terminal
    ]
    for item_id in pending:
        rec.call("item_start", engine.start_work_item, item_id)
        if after_each is not None:
            after_each()
        rec.call("complete", engine.complete_work_item, item_id, dict(result))
        if after_each is not None:
            after_each()


def compare_scans(items: tuple, instances: tuple, expected: tuple[int, int]) -> list[str]:
    """Each of ``items`` and ``instances`` is (state, scan answer, every
    row): the answer must be exactly the rows in that state, and there
    must be as many as ``expected`` says."""
    errors = []
    for noun, (state, answer, rows), want in zip(("work items", "instances"), (items, instances), expected):
        label = f"{noun} {state.value}"
        got = sorted(row.id for row in answer)
        held = sorted(row.id for row in rows if row.state is state)
        if got != held:
            errors.append(f"scan of {label}: {len(got)} returned, {len(held)} held")
        if len(held) != want:
            errors.append(f"scan of {label}: {len(held)} held, expected {want}")
    return errors


def check_containers(find: Callable[[str], list], inputs: generate.PortInputs) -> list[str]:
    """Every container COMPLETED with the customs status its verdict implies."""
    errors = []
    for container in inputs.containers:
        found = find(container.container_id)
        if len(found) != 1:
            errors.append(f"container {container.container_id}: {len(found)} instances")
            continue
        instance = found[0]
        status = instance.variables.get("customs_status")
        if instance.state is not InstanceState.COMPLETED or status != container.customs_status:
            errors.append(
                f"container {container.container_id}: {instance.state.value}/{status}, "
                f"expected completed/{container.customs_status}"
            )
        elif instance.variables.get("dangerous") is not container.dangerous:
            errors.append(f"container {container.container_id}: dangerous-goods flag wrong")
    return errors


WORKLOADS = {
    PortBacklog.name: PortBacklog,
    OrderAutocommit.name: OrderAutocommit,
    ClusterMixed.name: ClusterMixed,
}
