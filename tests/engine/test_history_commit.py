"""History joins the engine's group commit.

The engine writes the history appended since its last commit as one
journal record per store commit, just before the store transaction, and
nothing on a deferred flush.  These tests pin that batching end to end on
a durable engine, so a return to one record per event fails here.
"""

import os

import pytest

from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.history.audit import HistoryService
from repro.model.builder import ProcessBuilder
from repro.storage.eventstore import EventStore
from repro.storage.journal import Journal
from repro.storage.kvstore import DurableKV, MemoryKV
from repro.worklist.allocation import ShortestQueueAllocator


def approval_model():
    return (
        ProcessBuilder("approval")
        .start()
        .user_task("review", role="clerk")
        .script_task("after", script="done = true")
        .end()
        .build()
    )


def durable_engine(tmp_path, commit_interval, store=None):
    clock = VirtualClock(0)
    history = HistoryService(EventStore(str(tmp_path / "history.log")), clock=clock)
    engine = ProcessEngine(
        clock=clock,
        store=store if store is not None else DurableKV(str(tmp_path / "kv")),
        history=history,
        allocator=ShortestQueueAllocator(),
        commit_interval=commit_interval,
    )
    engine.organization.add("ana", roles=["clerk"])
    engine.deploy(approval_model())
    return engine


def history_records(path):
    journal = Journal(path, auto_recover=False)
    try:
        return sum(1 for _ in journal.replay())
    finally:
        journal.close()


def commits(engine):
    return engine.obs.registry.counter("engine.flush.commits").value


def test_one_history_record_per_engine_commit(tmp_path):
    path = str(tmp_path / "history.log")
    engine = durable_engine(tmp_path, commit_interval=32)
    deferred_checked = False
    for n in range(40):
        committed = commits(engine)
        size = os.path.getsize(path)
        events = len(engine.history.store)
        engine.start_instance("approval", {"n": n})
        if commits(engine) == committed:
            # a deferred flush: history grows in memory, not on disk
            assert len(engine.history.store) > events
            assert os.path.getsize(path) == size
            deferred_checked = True
        else:
            assert os.path.getsize(path) > size
    assert deferred_checked
    for item in list(engine.worklist.items()):
        engine.worklist.start(item.id)
        engine.complete_work_item(item.id)
    engine.flush()
    assert commits(engine) > 2
    assert history_records(path) == commits(engine)
    engine.history.close()
    engine.store.close()


def test_a_second_reader_sees_every_event_after_flush(tmp_path):
    engine = durable_engine(tmp_path, commit_interval=32)
    for n in range(5):
        engine.start_instance("approval", {"n": n})
    engine.flush()
    reader = EventStore(str(tmp_path / "history.log"))
    assert len(reader) == len(engine.history.store)
    assert [e.type for e in reader.all()] == [e.type for e in engine.history.store.all()]
    reader.close()
    engine.history.close()
    engine.store.close()


class FailingCommitKV(MemoryKV):
    """A store whose transactions fail once armed."""

    armed = False

    def commit(self):
        if self.armed:
            self.rollback()
            raise OSError("disk full")
        super().commit()


def test_history_is_written_before_the_store_commit(tmp_path):
    store = FailingCommitKV()
    engine = durable_engine(tmp_path, commit_interval=1, store=store)
    store.armed = True
    with pytest.raises(OSError):
        engine.start_instance("approval")
    reader = EventStore(str(tmp_path / "history.log"))
    assert len(reader) == len(engine.history.store)
    reader.close()
    engine.history.close()
