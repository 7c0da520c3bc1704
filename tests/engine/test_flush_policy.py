"""Engine tests: incremental persistence, commit policies, group commit.

The seed engine rewrote every collection (jobs, work items, message waits,
meta) as whole-store blobs on every flush — O(total state) per API call.
These tests pin the replacement: differential writes only for what
changed, a real early return when nothing is dirty, and the batch() /
commit_interval policies that coalesce many calls into one commit.
"""

from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder
from repro.storage.kvstore import MemoryKV
from repro.worklist.allocation import ShortestQueueAllocator


class CountingKV(MemoryKV):
    """MemoryKV that counts write operations and transactions."""

    def __init__(self):
        super().__init__()
        self.puts = 0
        self.deletes = 0
        self.commits = 0
        self.put_keys = []

    def put(self, key, value):
        self.puts += 1
        self.put_keys.append(key)
        super().put(key, value)

    def delete(self, key):
        self.deletes += 1
        return super().delete(key)

    def commit(self):
        self.commits += 1
        super().commit()

    def reset_counts(self):
        self.puts = 0
        self.deletes = 0
        self.commits = 0
        self.put_keys = []


def approval_model():
    return (
        ProcessBuilder("approval")
        .start()
        .user_task("review", role="clerk")
        .script_task("after", script="done = true")
        .end()
        .build()
    )


def timed_model():
    return (
        ProcessBuilder("timed")
        .start()
        .timer("wait", duration=60)
        .script_task("after", script="fired = true")
        .end()
        .build()
    )


def build_engine(store, **kwargs):
    engine = ProcessEngine(
        clock=VirtualClock(0),
        store=store,
        allocator=ShortestQueueAllocator(),
        **kwargs,
    )
    engine.organization.add("ana", roles=["clerk"])
    return engine


class TestDeadGuardFix:
    """The seed's `if not dirty: pass` guard was a no-op; now it returns."""

    def test_read_only_calls_write_nothing(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(approval_model())
        instance = engine.start_instance("approval")
        store.reset_counts()

        engine.instance(instance.id)
        engine.instances()
        engine.find_instances(state=InstanceState.RUNNING)
        assert engine.run_due_jobs() == 0  # empty queue
        assert store.puts == 0
        assert store.deletes == 0
        assert store.commits == 0

    def test_explicit_flush_with_nothing_dirty_writes_nothing(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(approval_model())
        engine.start_instance("approval")
        engine.flush()  # drain the write-behind view dirt the start noted
        store.reset_counts()
        engine.flush()
        assert store.puts == 0
        assert store.commits == 0


class TestIncrementalWrites:
    def test_completion_writes_only_changed_records(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(approval_model())
        # two instances; completing one must not rewrite the other's item
        first = engine.start_instance("approval")
        engine.start_instance("approval")
        item = next(
            i for i in engine.worklist.items() if i.instance_id == first.id
        )
        store.reset_counts()

        engine.worklist.start(item.id)
        engine.complete_work_item(item.id)
        assert f"instance/{first.id}" in store.put_keys
        assert f"workitem/{item.id}" in store.put_keys
        # no whole-collection blobs, no untouched records
        assert "engine/jobs" not in store.put_keys
        assert "engine/workitems" not in store.put_keys
        other_items = [k for k in store.put_keys if k.startswith("workitem/")]
        assert other_items == [f"workitem/{item.id}"]

    def test_fired_job_record_is_deleted(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(timed_model())
        engine.start_instance("timed")
        job_keys = [k for k in store.keys("jobs/")]
        assert len(job_keys) == 1
        engine.advance_time(61)
        assert store.keys("jobs/") == []

    def test_message_waits_written_only_when_changed(self):
        store = CountingKV()
        engine = build_engine(store)
        model = (
            ProcessBuilder("msg")
            .start()
            .receive_task("wait", message_name="go", correlation_expression="key")
            .end()
            .build()
        )
        engine.deploy(model)
        store.reset_counts()
        # registering a wait puts exactly one record of its own
        engine.start_instance("msg", {"key": "k1"})
        wait_puts = [k for k in store.put_keys if k.startswith("msgwait/")]
        assert len(wait_puts) == 1
        assert store.keys("msgwait/") == wait_puts
        assert "engine/message_waits" not in store
        store.reset_counts()
        # unrelated traffic must not touch any wait record
        engine.deploy(approval_model())
        engine.start_instance("approval")
        assert not [k for k in store.put_keys if k.startswith("msgwait/")]
        assert store.deletes == 0
        # delivery deletes the record
        engine.correlate_message("go", "k1", {})
        assert store.keys("msgwait/") == []


class TestCommitPolicies:
    def test_batch_coalesces_into_one_commit(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(approval_model())
        for _ in range(5):
            engine.start_instance("approval")
        items = [i.id for i in engine.worklist.items()]
        store.reset_counts()

        with engine.batch():
            for item_id in items:
                engine.worklist.start(item_id)
                engine.complete_work_item(item_id)
            assert store.commits == 0  # all deferred
        assert store.commits == 1
        # every instance/item record was still written, exactly once
        instance_puts = [k for k in store.put_keys if k.startswith("instance/")]
        assert len(instance_puts) == len(set(instance_puts)) == 5

    def test_batch_is_reentrant(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(approval_model())
        store.reset_counts()
        with engine.batch():
            with engine.batch():
                engine.start_instance("approval")
            assert store.commits == 0  # inner exit does not commit
        assert store.commits == 1

    def test_batch_flushes_on_exception(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(approval_model())
        store.reset_counts()
        try:
            with engine.batch():
                engine.start_instance("approval")
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        # memory mutated, so the store must not lag behind it
        assert store.commits == 1
        assert store.keys("instance/")

    def test_commit_interval_defers_until_threshold(self):
        store = CountingKV()
        engine = build_engine(store, commit_interval=1000)
        engine.deploy(approval_model())
        instance = engine.start_instance("approval")
        # a couple of dirty records < 1000: nothing committed yet
        assert store.keys("instance/") == []
        engine.flush()
        assert store.get(f"instance/{instance.id}") is not None

    def test_state_survives_batched_run(self, tmp_path):
        from repro.storage.kvstore import DurableKV

        store = DurableKV(str(tmp_path / "kv"))
        engine = build_engine(store)
        engine.deploy(approval_model())
        with engine.batch():
            ids = [engine.start_instance("approval").id for _ in range(3)]
            for item in engine.worklist.items():
                engine.worklist.start(item.id)
                engine.complete_work_item(item.id)
        store.close()

        store2 = DurableKV(str(tmp_path / "kv"))
        engine2 = build_engine(store2)
        engine2.recover()
        for instance_id in ids:
            assert engine2.instance(instance_id).state is InstanceState.COMPLETED
            assert engine2.instance(instance_id).variables["done"] is True
        store2.close()


class TestOrphanedJobs:
    def test_orphaned_jobs_skipped_and_counted(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(timed_model())
        engine.start_instance("timed")
        # fabricate a job for an instance the engine does not know
        engine.scheduler.schedule(10, "timer", "ghost-1", {"token_id": 1})
        processed = engine.advance_time(61)
        assert processed == 1  # the real timer only
        assert engine.obs.registry.counter("engine.jobs.orphaned").value == 1
        # the orphan was dropped, not re-queued
        assert len(engine.scheduler) == 0

    def test_no_orphans_counter_stays_zero(self):
        engine = build_engine(CountingKV())
        engine.deploy(timed_model())
        engine.start_instance("timed")
        engine.advance_time(61)
        assert engine.obs.registry.counter("engine.jobs.orphaned").value == 0


class TestCorrelateWriteSet:
    """A publish that matches no waiting receiver only parks the message
    in the bus's in-memory retained buffer — the store must see zero
    writes (the sharded runtime probes + publishes on every broadcast,
    so a dirtying no-op here would multiply into N commits per message)."""

    def receive_model(self):
        return (
            ProcessBuilder("msg")
            .start()
            .receive_task("wait", message_name="go", correlation_expression="key")
            .end()
            .build()
        )

    def test_unmatched_publish_writes_nothing(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(self.receive_model())
        store.reset_counts()

        message = engine.correlate_message("go", "nobody-waiting", {})
        assert message.name == "go"
        assert store.puts == 0
        assert store.deletes == 0
        assert store.commits == 0
        # the message is retained, not lost
        assert engine.bus.retained_count == 1

    def test_delivered_publish_still_writes(self):
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(self.receive_model())
        instance = engine.start_instance("msg", {"key": "k1"})
        store.reset_counts()

        engine.correlate_message("go", "k1", {})
        assert engine.instance(instance.id).state is InstanceState.COMPLETED
        assert f"instance/{instance.id}" in store.put_keys
        assert store.commits >= 1

    def test_dedup_keyed_unmatched_publish_logs_the_dispatch(self):
        """An idempotency-keyed publish must keep its dispatch record even
        when nothing matched, so the dedup window survives recovery."""
        store = CountingKV()
        engine = build_engine(store)
        engine.deploy(self.receive_model())
        store.reset_counts()

        engine.correlate_message("go", "nobody", {}, dedup_key="pub-1")
        dispatch_puts = [k for k in store.put_keys if k.startswith("dispatch/")]
        assert len(dispatch_puts) == 1
        # and only the dispatch record: no instance/job/workitem churn
        assert [
            k for k in store.put_keys if not k.startswith("dispatch/")
        ] == []


class TestFlushInstrumentation:
    def test_flush_metrics_and_span(self):
        from repro.obs import InMemorySpanExporter, Observability

        exporter = InMemorySpanExporter()
        obs = Observability(enabled=True, exporters=[exporter])
        store = CountingKV()
        engine = build_engine(store, obs=obs)
        engine.deploy(approval_model())
        engine.start_instance("approval")
        registry = engine.obs.registry
        assert registry.counter("engine.flush.commits").value >= 1
        assert registry.counter("engine.flush.records_written").value >= 2
        histogram = registry.histogram(
            "engine.flush.batch_records",
            (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0),
        )
        assert histogram.count >= 1
        names = [s.name for s in exporter.spans]
        assert "engine.flush" in names
