"""Property test: indexed message-wait matching == a first-match linear scan.

The engine indexes its message waits by ``(name, correlation)`` with a
per-name bucket for ``match_any`` and unhashable correlations.  This test
keeps the plain matching rule as a reference: one list of waits in
registration order, scanned front to back for the first live, matching
wait.  Random starts, publishes, suspends, resumes, terminations and
close-plus-recover steps must agree with it on who receives each
publish (instance and token) and on the ``message_delivery_probe``
verdict.  The reference list keeps its order across a recovery, so a
recovery that renumbers waits out of order shows as a mismatch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.engine.instance import InstanceState, TokenState
from repro.model.builder import ProcessBuilder
from repro.storage.kvstore import MemoryKV

NAMES = ("m1", "m2")
#: correlation values: a string, an int, and an unhashable list
KEYS = ("a", 7, ["x"])


def models():
    for name in NAMES:
        yield (
            ProcessBuilder(f"corr_{name}")
            .start()
            .receive_task("wait", message_name=name, correlation_expression="key")
            .end()
            .build()
        )
        yield (
            ProcessBuilder(f"any_{name}")
            .start()
            .message_catch("wait", message_name=name)
            .end()
            .build()
        )
    yield (
        ProcessBuilder("race")
        .start()
        .event_gateway("race")
        .branch()
        .message_catch("on_m1", message_name="m1", correlation_expression="key")
        .end("end_m1")
        .branch_from("race")
        .message_catch("on_m2", message_name="m2")
        .end("end_m2")
        .build()
    )


DEFINITIONS = ("corr_m1", "any_m1", "corr_m2", "any_m2", "race")

start = st.tuples(
    st.sampled_from(["start", "start", "start_pair"]),
    st.integers(0, 4),
    st.integers(0, 2),
)
publish = st.tuples(st.just("publish"), st.integers(0, 7), st.integers(0, 9))
# starts and publishes weighted up, and starts in pairs (one correlated,
# one match_any on the same name), so that several live waits often match
# one publish and the first-registered rule decides
op = st.one_of(
    start,
    start,
    start,
    publish,
    publish,
    st.tuples(st.just("suspend"), st.integers(0, 7), st.just(0)),
    st.tuples(st.just("resume"), st.integers(0, 7), st.just(0)),
    st.tuples(st.just("terminate"), st.integers(0, 7), st.just(0)),
    st.tuples(st.just("recover"), st.just(0), st.just(0)),
)


def open_engine(store, clock, fresh):
    engine = ProcessEngine(clock=clock, store=store, views=False)
    if fresh:
        for model in models():
            engine.deploy(model)
    else:
        engine.recover()
    deliveries = []
    deliver = engine._deliver_to_wait

    def recording(instance, token, wait, payload):
        deliveries.append((instance.id, token.id))
        deliver(instance, token, wait, payload)

    engine._deliver_to_wait = recording
    return engine, deliveries


def identity(wait):
    return (wait.instance_id, wait.token_id, wait.name, wait.node_id, wait.race_event)


def sync_reference(reference, engine):
    """Drop waits that are gone; append new ones in registration order.

    Entries are the test's own copies ``(identity, correlation,
    match_any)``, taken when a wait first appears, so that a recovery
    which loads a wait wrongly cannot change the reference as well.
    """
    current = {identity(w): w for w in engine._message_waits}
    kept = [entry for entry in reference if entry[0] in current]
    known = {entry[0] for entry in kept}
    return kept + [
        (i, w.correlation, w.match_any) for i, w in current.items() if i not in known
    ]


def reference_scan(reference, engine, name, correlation):
    """The first-match linear scan: (verdict, (instance, token) or None)."""
    verdict = "none"
    for (instance_id, token_id, wait_name, _, _), wait_correlation, match_any in (
        reference
    ):
        if wait_name != name:
            continue
        if not match_any and wait_correlation != correlation:
            continue
        instance = engine._instances.get(instance_id)
        if instance is None or instance.state.is_finished:
            continue
        if instance.state is not InstanceState.RUNNING:
            verdict = "wait"
            continue
        token = instance.token(token_id)
        if token is None or token.state is not TokenState.WAITING:
            continue
        return "deliver", (instance_id, token_id)
    return verdict, None


def message_for(engine, a, b):
    """A publish's (name, correlation): a random one, or, for b > 3, the
    one a standing wait asks for, so that publishes often find a wait."""
    waits = list(engine._message_waits)
    if b > 3 and waits:
        wait = waits[a % len(waits)]
        return wait.name, KEYS[b % len(KEYS)] if wait.match_any else wait.correlation
    return NAMES[a % 2], KEYS[b] if b < len(KEYS) else None


def pick(engine, states, n):
    chosen = [i for i in engine.instances() if i.state in states]
    return chosen[n % len(chosen)] if chosen else None


@settings(max_examples=150, deadline=None)
@given(st.lists(op, min_size=10, max_size=50))
def test_indexed_matching_equals_first_match_scan(ops):
    store, clock = MemoryKV(), VirtualClock(start=0.0)
    engine, deliveries = open_engine(store, clock, fresh=True)
    reference = []
    for action, a, b in ops:
        if action == "start":
            engine.start_instance(DEFINITIONS[a], {"key": KEYS[b]})
        elif action == "start_pair":
            first, second = (f"corr_{NAMES[a % 2]}", f"any_{NAMES[a % 2]}")
            if a > 1:
                first, second = second, first
            engine.start_instance(first, {"key": KEYS[b]})
            engine.start_instance(second, {"key": KEYS[b]})
        elif action == "publish":
            name, correlation = message_for(engine, a, b)
            verdict, target = reference_scan(reference, engine, name, correlation)
            assert engine.message_delivery_probe(name, correlation) == verdict
            deliveries.clear()
            engine.correlate_message(name, correlation)
            assert deliveries == ([target] if target else [])
        elif action == "suspend":
            instance = pick(engine, {InstanceState.RUNNING}, a)
            if instance is not None:
                engine.suspend_instance(instance.id)
        elif action == "resume":
            instance = pick(engine, {InstanceState.SUSPENDED}, a)
            if instance is not None:
                engine.resume_instance(instance.id)
        elif action == "terminate":
            instance = pick(
                engine, {InstanceState.RUNNING, InstanceState.SUSPENDED}, a
            )
            if instance is not None:
                engine.terminate_instance(instance.id)
        else:  # close, then recover a new engine from the same store
            engine, deliveries = open_engine(store, clock, fresh=False)
        reference = sync_reference(reference, engine)
        # registration order holds, across recoveries too
        assert [entry[0] for entry in reference] == [
            identity(w) for w in engine._message_waits
        ]
        # one record per standing wait, nothing else
        assert store.keys("msgwait/") == sorted(
            w.key for w in engine._message_waits
        )
