"""Tests for the append-only event store."""

import os

import pytest

from repro.storage.errors import StorageError
from repro.storage.eventstore import EventRecord, EventStore
from repro.storage.journal import Journal
from repro.storage.serializers import json_decode, json_encode


def journal_payloads(path):
    """The decoded records of a history log, read without recovery."""
    journal = Journal(path, auto_recover=False)
    try:
        return [json_decode(r.payload) for r in journal.replay()]
    finally:
        journal.close()


class TestInMemory:
    def test_append_assigns_sequence(self):
        store = EventStore()
        e1 = store.append("inst-1", "started", timestamp=1.0)
        e2 = store.append("inst-1", "completed", timestamp=2.0)
        assert (e1.sequence, e2.sequence) == (0, 1)
        assert len(store) == 2

    def test_stream_isolation(self):
        store = EventStore()
        store.append("a", "x", 1.0)
        store.append("b", "y", 2.0)
        store.append("a", "z", 3.0)
        assert [e.type for e in store.stream("a")] == ["x", "z"]
        assert [e.type for e in store.stream("b")] == ["y"]
        assert store.stream("missing") == []
        assert store.streams() == ["a", "b"]

    def test_of_type_and_since(self):
        store = EventStore()
        store.append("a", "started", 1.0)
        store.append("a", "node", 2.0)
        store.append("a", "node", 3.0)
        assert len(store.of_type("node")) == 2
        assert [e.sequence for e in store.since(1)] == [1, 2]

    def test_data_payload_stored(self):
        store = EventStore()
        event = store.append("a", "node", 1.0, data={"node_id": "approve"})
        assert event.data == {"node_id": "approve"}

    def test_empty_stream_or_type_rejected(self):
        store = EventStore()
        with pytest.raises(StorageError):
            store.append("", "x", 1.0)
        with pytest.raises(StorageError):
            store.append("a", "", 1.0)

    def test_record_dict_roundtrip(self):
        event = EventRecord(0, "s", "t", 1.5, {"k": "v"})
        assert EventRecord.from_dict(event.to_dict()) == event


class TestDurable:
    def test_events_survive_reopen(self, tmp_path):
        path = str(tmp_path / "events.log")
        store = EventStore(path)
        store.append("inst-1", "started", 1.0, {"a": 1})
        store.append("inst-1", "completed", 2.0)
        store.close()

        reopened = EventStore(path)
        assert len(reopened) == 2
        assert [e.type for e in reopened.stream("inst-1")] == ["started", "completed"]
        assert list(reopened.all())[0].data == {"a": 1}
        reopened.close()

    def test_appends_continue_after_reopen(self, tmp_path):
        path = str(tmp_path / "events.log")
        store = EventStore(path)
        store.append("s", "one", 1.0)
        store.close()
        reopened = EventStore(path)
        event = reopened.append("s", "two", 2.0)
        assert event.sequence == 1
        reopened.close()

    def test_sync_flushes(self, tmp_path):
        path = str(tmp_path / "events.log")
        store = EventStore(path, sync_writes=False)
        store.append("s", "one", 1.0)
        store.sync()
        # a second reader sees the synced event
        reader = EventStore(path)
        assert len(reader) == 1
        reader.close()
        store.close()

    def test_sync_writes_makes_each_append_durable(self, tmp_path):
        path = str(tmp_path / "events.log")
        store = EventStore(path, sync_writes=True)
        for n in range(3):
            store.append("s", f"e{n}", float(n))
            # readable by a second reader as soon as append returns
            reader = EventStore(path)
            assert [e.type for e in reader.all()] == [f"e{k}" for k in range(n + 1)]
            reader.close()
        store.close()


class TestBatchedCommit:
    def test_append_writes_nothing_until_commit(self, tmp_path):
        path = str(tmp_path / "events.log")
        store = EventStore(path)
        store.append("a", "x", 1.0, {"k": 1})
        store.append("b", "y", 2.0)
        assert os.path.getsize(path) == 0
        store.commit()
        assert journal_payloads(path) == [
            {"first": 0, "rows": [["a", "x", 1.0, {"k": 1}], ["b", "y", 2.0, {}]]}
        ]
        store.close()

    def test_one_record_per_commit_and_none_when_idle(self, tmp_path):
        path = str(tmp_path / "events.log")
        store = EventStore(path)
        store.append("a", "x", 1.0)
        store.commit()
        size = os.path.getsize(path)
        store.commit()  # nothing pending: no empty record
        assert os.path.getsize(path) == size
        store.append("a", "y", 2.0)
        store.append("a", "z", 3.0)
        store.append("b", "x", 4.0)
        store.commit()
        store.close()
        assert [(r["first"], len(r["rows"])) for r in journal_payloads(path)] == [
            (0, 1),
            (1, 3),
        ]
        reopened = EventStore(path)
        assert [e.sequence for e in reopened.all()] == [0, 1, 2, 3]
        assert [e.type for e in reopened.stream("a")] == ["x", "y", "z"]
        reopened.close()

    def test_close_and_sync_commit_the_tail(self, tmp_path):
        path = str(tmp_path / "events.log")
        store = EventStore(path)
        store.append("a", "x", 1.0)
        store.sync()
        store.append("a", "y", 2.0)
        store.close()
        assert len(journal_payloads(path)) == 2
        reopened = EventStore(path)
        assert [e.type for e in reopened.all()] == ["x", "y"]
        reopened.close()

    def test_in_memory_commit_is_a_no_op(self):
        store = EventStore()
        store.append("a", "x", 1.0)
        store.commit()
        store.sync()
        assert [e.type for e in store.all()] == ["x"]

    def test_unserializable_data_fails_the_commit_and_stays_pending(self, tmp_path):
        path = str(tmp_path / "events.log")
        store = EventStore(path)
        store.append("a", "x", 1.0, {"bad": object()})
        with pytest.raises(StorageError):
            store.commit()
        assert os.path.getsize(path) == 0
        with pytest.raises(StorageError):
            store.commit()  # the batch is retried, never dropped
        assert len(store) == 1


class TestOldLayout:
    """Logs written before batching hold one event dict per record."""

    def _write_old_log(self, path, count):
        journal = Journal(path)
        for n in range(count):
            event = EventRecord(n, f"inst-{n % 2}", f"old{n}", float(n), {"n": n})
            journal.append(json_encode(event.to_dict()))
        journal.close()

    def test_old_log_replays_and_new_batches_continue_it(self, tmp_path):
        path = str(tmp_path / "events.log")
        self._write_old_log(path, 3)
        store = EventStore(path)
        assert [e.type for e in store.all()] == ["old0", "old1", "old2"]
        assert store.stream("inst-0")[1].data == {"n": 2}
        assert store.append("inst-0", "new3", 3.0).sequence == 3
        store.append("inst-1", "new4", 4.0)
        store.commit()
        store.append("inst-0", "new5", 5.0)
        store.close()

        records = journal_payloads(path)
        assert [("rows" in r) for r in records] == [False] * 3 + [True] * 2
        assert [r["first"] for r in records[3:]] == [3, 5]
        reopened = EventStore(path)
        assert [e.sequence for e in reopened.all()] == list(range(6))
        assert [e.type for e in reopened.stream("inst-0")] == [
            "old0",
            "old2",
            "new3",
            "new5",
        ]
        assert [e.type for e in reopened.since(2)] == ["old2", "new3", "new4", "new5"]
        assert reopened.append("inst-1", "new6", 6.0).sequence == 6
        reopened.close()

    def test_torn_batch_is_dropped_whole(self, tmp_path):
        path = str(tmp_path / "events.log")
        self._write_old_log(path, 2)
        store = EventStore(path)
        store.append("a", "kept", 2.0)
        store.commit()
        good_end = os.path.getsize(path)
        for n in range(3):
            store.append("a", f"torn{n}", 3.0 + n)
        store.close()
        with open(path, "r+b") as fh:  # a crash mid-write of the last batch
            fh.truncate(os.path.getsize(path) - 5)

        journal = Journal(path, auto_recover=False)
        assert len(list(journal.replay())) == 3
        assert journal.torn_tail_offset == good_end
        journal.close()

        reopened = EventStore(path)
        assert reopened._journal.recovered_bytes > 0
        assert [e.type for e in reopened.all()] == ["old0", "old1", "kept"]
        assert reopened.append("a", "after", 9.0).sequence == 3
        reopened.close()
        again = EventStore(path)
        assert [e.sequence for e in again.all()] == [0, 1, 2, 3]
        assert again.stream("a")[-1].type == "after"
        again.close()
