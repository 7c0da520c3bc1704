"""Message waits on disk: one ``msgwait/<seq>`` record per standing wait.

Pins the layout end to end on the port-terminal process of
``examples/port_container_handling.py`` (a durable store, a mid-run
restart, every wait gone once every container is handled), and the
one-time import of stores that kept all waits in one
``engine/message_waits`` list.
"""

import contextlib
import io
import runpy
from pathlib import Path

from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder
from repro.storage.kvstore import DurableKV, MemoryKV
from repro.worklist.allocation import ShortestQueueAllocator

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "port_container_handling.py"


def port_example():
    with contextlib.redirect_stdout(io.StringIO()):
        return runpy.run_path(str(EXAMPLE))


def port_engine(example, store):
    engine = ProcessEngine(
        clock=VirtualClock(0), store=store, allocator=ShortestQueueAllocator()
    )
    engine.services.register("parse_manifest", example["parse_manifest"])
    engine.services.register(
        "send_customs_declaration", example["send_customs_declaration"]
    )
    engine.organization.add("dg_dora", roles=["dg_specialist"])
    engine.organization.add("crane_carl", roles=["crane_operator"])
    engine.organization.add("officer_li", roles=["customs_officer"])
    return engine


def manifest(n, dangerous):
    dgs = "DGS+3+1203'" if dangerous else ""
    return f"UNH+{n}+IFTMIN'BGM+85+DOC-{n:03d}'EQD+CN+CONT{n:07d}'{dgs}"


def work(engine, node_id, result=None):
    for item in engine.worklist.items():
        if item.node_id == node_id and not item.state.is_terminal:
            engine.worklist.start(item.id)
            engine.complete_work_item(item.id, result)


def assert_no_waits(engine, store):
    assert len(engine._message_waits) == 0
    assert store.keys("msgwait/") == []
    assert "engine/message_waits" not in store


def test_port_process_leaves_no_message_waits(tmp_path):
    example = port_example()
    directory = str(tmp_path / "store")
    store = DurableKV(directory)
    engine = port_engine(example, store)
    engine.deploy(example["customs"])
    engine.deploy(example["terminal"])
    containers = [f"CONT{n:07d}" for n in range(1, 9)]
    roots = [
        engine.start_instance(
            "container_handling", {"manifest": manifest(n, dangerous=n % 3 == 0)}
        ).id
        for n in range(1, 9)
    ]
    work(engine, "dg_clearance", {"dg_approved": True})
    # every customs child races a release against an inspection order
    assert len(engine._message_waits) == 2 * len(containers)
    assert len(store.keys("msgwait/")) == 2 * len(containers)
    for n, container in enumerate(containers[:4]):
        engine.correlate_message(
            "customs_release" if n % 2 else "customs_inspection", container
        )
    assert len(store.keys("msgwait/")) == 2 * 4

    # restart with half the verdicts outstanding
    store.close()
    store = DurableKV(directory)
    engine = port_engine(example, store)
    engine.recover()
    assert len(engine._message_waits) == 2 * 4
    for n, container in enumerate(containers[4:]):
        engine.correlate_message(
            "customs_release" if n % 2 else "customs_inspection", container
        )
    work(engine, "physical_inspection", {"seal_intact": True})
    work(engine, "yard_move")
    assert all(
        engine.instance(root).state is InstanceState.COMPLETED for root in roots
    )
    assert engine.worklist.open_count == 0
    assert_no_waits(engine, store)

    store.close()
    store = DurableKV(directory)
    engine = port_engine(example, store)
    engine.recover()
    assert_no_waits(engine, store)
    store.close()


class BatchLog(MemoryKV):
    """MemoryKV that keeps every committed batch of operations."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def _apply_batch(self, ops):
        self.batches.append(list(ops))
        super()._apply_batch(ops)


def receive_model():
    return (
        ProcessBuilder("receive")
        .start()
        .receive_task("wait", message_name="go", correlation_expression="key")
        .end()
        .build()
    )


def race_model():
    return (
        ProcessBuilder("race")
        .start()
        .event_gateway("race")
        .branch()
        .message_catch("on_go", message_name="go", correlation_expression="key")
        .end("end_go")
        .branch_from("race")
        .message_catch("on_stop", message_name="stop")
        .end("end_stop")
        .build()
    )


def test_old_single_list_layout_is_imported_once():
    store = BatchLog()
    writer = ProcessEngine(clock=VirtualClock(0), store=store)
    writer.deploy(receive_model())
    writer.deploy(race_model())
    first = writer.start_instance("receive", {"key": "k1"})
    second = writer.start_instance("race", {"key": "k1"})
    third = writer.start_instance("receive", {"key": "k1"})
    # rewrite the waits the way older engines stored them: one list, in
    # registration order, without seqs
    with store.transaction():
        for key in store.keys("msgwait/"):
            store.delete(key)
        store.put(
            "engine/message_waits",
            [
                {
                    "instance_id": first.id,
                    "token_id": first.tokens[0].id,
                    "name": "go",
                    "correlation": "k1",
                    "match_any": False,
                    "node_id": "wait",
                    "is_activity": True,
                },
                {
                    "instance_id": second.id,
                    "token_id": second.tokens[0].id,
                    "name": "go",
                    "correlation": "k1",
                    "match_any": False,
                    "race_gateway": "race",
                    "race_event": "on_go",
                },
                {
                    "instance_id": second.id,
                    "token_id": second.tokens[0].id,
                    "name": "stop",
                    "correlation": None,
                    "match_any": True,
                    "race_gateway": "race",
                    "race_event": "on_stop",
                },
                {
                    "instance_id": third.id,
                    "token_id": third.tokens[0].id,
                    "name": "go",
                    "correlation": "k1",
                    "match_any": False,
                    "node_id": "wait",
                    "is_activity": True,
                },
            ],
        )

    engine = ProcessEngine(clock=VirtualClock(0), store=store)
    engine.recover()
    assert [(w.instance_id, w.name) for w in engine._message_waits] == [
        (first.id, "go"),
        (second.id, "go"),
        (second.id, "stop"),
        (third.id, "go"),
    ]
    # the first commit writes the records and drops the list, together
    store.batches.clear()
    engine.flush()
    assert len(store.batches) == 1
    ops = {(op, key) for op, key, _ in store.batches[0]}
    assert ("del", "engine/message_waits") in ops
    assert {key for op, key in ops if op == "put"} == set(store.keys("msgwait/"))
    assert len(store.keys("msgwait/")) == 4
    assert "engine/message_waits" not in store

    # the imported waits deliver in the old list order
    engine.correlate_message("go", "k1")
    assert engine.instance(first.id).state is InstanceState.COMPLETED
    engine.correlate_message("go", "k1")
    assert engine.instance(second.id).state is InstanceState.COMPLETED
    assert len(engine._message_waits) == 1  # the race's losing wait is gone
    engine.correlate_message("go", "k1")
    assert engine.instance(third.id).state is InstanceState.COMPLETED
    assert_no_waits(engine, store)
    # and a later restart reads the records, not the list
    again = ProcessEngine(clock=VirtualClock(0), store=store)
    again.recover()
    assert len(again._message_waits) == 0
