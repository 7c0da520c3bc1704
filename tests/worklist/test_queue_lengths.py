"""Property test: incremental per-resource queue lengths == a full recount.

``WorklistService.queue_lengths`` returns counts kept by the lifecycle
transitions instead of rescanning every item.  Random sequences of
creates, claims, delegations, starts, deadline escalations, completions,
cancellations (single and per instance) and exports re-imported into a
new service must leave it equal to a recount over all items.  A twin
service whose ``queue_lengths`` *is* that recount runs the same sequence,
so a ``ShortestQueueAllocator`` must allocate every item to the same
resource in both.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.worklist.allocation import ShortestQueueAllocator
from repro.worklist.errors import WorklistError
from repro.worklist.resources import OrganizationalModel
from repro.worklist.service import WorklistService

RESOURCES = ("ana", "bo", "cy")
ROLES = ("clerk", "manager")


def recount(service):
    lengths = {}
    for item in service.items():
        if item.allocated_to and not item.state.is_terminal:
            lengths[item.allocated_to] = lengths.get(item.allocated_to, 0) + 1
    return lengths


class RecountingWorklist(WorklistService):
    """Allocates from a full recount of the items (the scan it replaced)."""

    def queue_lengths(self):
        return recount(self)


def organization():
    org = OrganizationalModel()
    org.add("ana", roles=["clerk", "manager"])
    org.add("bo", roles=["clerk"])
    org.add("cy", roles=["clerk", "manager"])
    return org


def open_service(cls, clock, items=None):
    service = cls(
        organization=organization(),
        allocator=ShortestQueueAllocator(),
        clock=clock,
    )
    if items is not None:
        service.import_items(items)
    return service


op = st.one_of(
    st.tuples(st.just("create"), st.integers(0, 1), st.integers(0, 3)),
    st.tuples(st.just("create"), st.integers(0, 1), st.integers(0, 3)),
    st.tuples(st.just("claim"), st.integers(0, 30), st.integers(0, 2)),
    st.tuples(st.just("delegate"), st.integers(0, 30), st.just(0)),
    st.tuples(st.just("start"), st.integers(0, 30), st.just(0)),
    st.tuples(st.just("complete"), st.integers(0, 30), st.just(0)),
    st.tuples(st.just("cancel"), st.integers(0, 30), st.just(0)),
    st.tuples(st.just("cancel_for_instance"), st.integers(0, 3), st.just(0)),
    st.tuples(st.just("deadlines"), st.integers(1, 20), st.just(0)),
    st.tuples(st.just("import"), st.just(0), st.just(0)),
)


def apply(service, clock, action, a, b):
    """One step; returns the error type it raised, if any."""
    items = service.items()
    try:
        if action == "create":
            # every other item has a deadline, for check_deadlines
            service.create_item(
                f"inst-{b}", "task", ROLES[a], due_seconds=5.0 if b % 2 else None
            )
        elif action == "cancel_for_instance":
            service.cancel_for_instance(f"inst-{a}")
        elif action == "deadlines":
            clock.advance(a)
            service.check_deadlines()
        elif items:
            item_id = items[a % len(items)].id
            if action == "claim":
                service.claim(item_id, RESOURCES[b])
            elif action == "delegate":
                service.delegate(item_id)
            elif action == "start":
                service.start(item_id)
            elif action == "complete":
                service.complete(item_id)
            else:
                service.cancel(item_id)
    except WorklistError as exc:
        return type(exc)
    return None


def snapshot(service):
    return [
        (item.id, item.state, item.allocated_to, item.priority)
        for item in service.items()
    ]


@settings(max_examples=150, deadline=None)
@given(st.lists(op, min_size=5, max_size=60))
def test_queue_lengths_equal_a_full_recount(ops):
    clock, twin_clock = VirtualClock(0), VirtualClock(0)
    service = open_service(WorklistService, clock)
    twin = open_service(RecountingWorklist, twin_clock)
    for action, a, b in ops:
        if action == "import":
            service = open_service(WorklistService, clock, service.export_items())
            twin = open_service(RecountingWorklist, twin_clock, twin.export_items())
        else:
            error = apply(service, clock, action, a, b)
            assert apply(twin, twin_clock, action, a, b) == error
        assert service.queue_lengths() == recount(service)
        assert snapshot(service) == snapshot(twin)
        assert service.open_count == sum(
            1 for item in service.items() if not item.state.is_terminal
        )


def test_queue_lengths_is_a_copy():
    service = open_service(WorklistService, VirtualClock(0))
    service.create_item("inst-1", "task", "clerk")
    lengths = service.queue_lengths()
    lengths["ana"] = 99
    assert service.queue_lengths() == {"ana": 1}
