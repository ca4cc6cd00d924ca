"""Property tests for the event queue, the Event back-reference
lifecycle, and the defer_to_event_end same-instant ordering contract.

The queue's correctness claim is its pop order: for any interleaving of
pushes (any times — including into days the calendar already passed,
past the end of the wheel, and far enough out to wrap it — any
priorities, ties), pops, cancellations and compactions, it emits the
live events in ``(time, priority, seq)`` order. Hypothesis drives
random interleavings against a sorted-list model of that contract.
"""

import bisect
import gc
import weakref
from dataclasses import dataclass, field

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim.events import WHEEL_DAYS, Event, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.shard import ShardPlan, ShardedSimulator


def noop():
    pass


@dataclass(order=True)
class _ModelEvent:
    time: float
    priority: int
    seq: int
    label: str = field(compare=False)
    model: "_SortedListModel" = field(compare=False, repr=False)

    def cancel(self) -> None:
        self.model.discard(self)


class _SortedListModel:
    """The queue contract stated directly: the live events, kept sorted
    by ``(time, priority, seq)``; the head pops next."""

    def __init__(self) -> None:
        self.events: list[_ModelEvent] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self.events)

    def push(self, time, action, priority=0, label=""):
        event = _ModelEvent(time, priority, self._seq, label, self)
        self._seq += 1
        bisect.insort(self.events, event)
        return event

    def pop(self):
        return self.events.pop(0) if self.events else None

    def pop_if_due(self, time):
        if self.events and self.events[0].time <= time:
            return self.events.pop(0)
        return None

    def peek_time(self):
        return self.events[0].time if self.events else None

    def compact(self) -> None:
        pass

    def discard(self, event: _ModelEvent) -> None:
        if event in self.events:
            self.events.remove(event)


# Latest time any generated op touches: several wheel laps, so pops
# move the calendar far enough for later pushes to wrap the wheel, and
# pushes made near the start land in the overflow heap.
_HORIZON = 4.0 * WHEEL_DAYS

# One random operation: (kind, value).
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"),
                  st.tuples(st.floats(min_value=0.0, max_value=_HORIZON,
                                      allow_nan=False, width=32),
                            st.integers(min_value=-2, max_value=2))),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("pop_if_due"),
                  st.floats(min_value=0.0, max_value=_HORIZON,
                            allow_nan=False, width=32)),
        st.tuples(st.just("peek"), st.none()),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("compact"), st.none()),
    ),
    min_size=1, max_size=200)


def _apply(queue, ops):
    """Run *ops* against *queue*; return the observable event stream."""
    observed = []
    handles = []
    for kind, value in ops:
        if kind == "push":
            time, priority = value
            handles.append(queue.push(time, noop, priority,
                                      label=f"e{len(handles)}"))
        elif kind == "pop":
            event = queue.pop()
            observed.append(("pop", None) if event is None else
                            ("pop", (event.time, event.priority,
                                     event.label)))
        elif kind == "pop_if_due":
            event = queue.pop_if_due(value)
            observed.append(("due", None) if event is None else
                            ("due", (event.time, event.priority,
                                     event.label)))
        elif kind == "peek":
            observed.append(("peek", queue.peek_time()))
        elif kind == "cancel":
            if handles:
                handles[value % len(handles)].cancel()
        elif kind == "compact":
            queue.compact()
        observed.append(("len", len(queue)))
    # Drain what's left: the full residual order must match too.
    while True:
        event = queue.pop()
        if event is None:
            break
        observed.append(("drain", (event.time, event.priority,
                                   event.label)))
    return observed


class TestQueueOrder:
    @given(ops=_ops)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_sorted_list_model(self, ops):
        assert _apply(EventQueue(), ops) == _apply(_SortedListModel(), ops)

    @given(times=st.lists(st.floats(min_value=0.0, max_value=_HORIZON,
                                    allow_nan=False),
                          min_size=1, max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_pure_push_then_drain_is_sorted(self, times):
        queue = EventQueue()
        for time in times:
            queue.push(time, noop)
        drained = []
        while (event := queue.pop()) is not None:
            drained.append((event.time, event.seq))
        assert drained == sorted(drained)
        assert len(drained) == len(times)

    def test_rolling_schedule_wraps_the_wheel(self):
        """A kernel-shaped schedule — every pop schedules successors
        relative to its own time — runs the calendar many laps round
        the wheel, through the overflow heap, in exact model order."""
        queue, model = EventQueue(), _SortedListModel()
        offsets = (0.0, 0.5, 3.0, WHEEL_DAYS * 0.8, WHEEL_DAYS * 1.5)
        for chain in range(len(offsets)):
            for target in (queue, model):
                target.push(0.0, noop, label=f"root{chain}")
        popped = []
        while (event := queue.pop()) is not None:
            expected = model.pop()
            assert (event.time, event.label) == \
                (expected.time, expected.label)
            popped.append(event.time)
            if len(popped) < 3000:
                offset = offsets[len(popped) % len(offsets)]
                for target in (queue, model):
                    target.push(event.time + offset, noop,
                                label=f"e{len(popped)}")
        assert model.pop() is None
        assert popped == sorted(popped)
        assert popped[-1] > 10 * WHEEL_DAYS

    def test_same_instant_fifo_across_tiers(self):
        """Ties break by seq even when the tied events took different
        storage paths (current run vs wheel vs overflow)."""
        queue = EventQueue()
        far = WHEEL_DAYS + 44.0
        queue.push(far, noop, label="overflow")     # beyond the wheel
        queue.push(2.0, noop, label="a")
        queue.push(6.5, noop, label="later")
        queue.push(100.0, noop, label="step")
        assert queue.pop().label == "a"             # calendar at day 2
        assert queue.peek_time() == 6.5             # ... now at day 6
        queue.push(2.0, noop, label="b")            # passed-day insert
        queue.push(2.0, noop, label="c")
        assert [queue.pop().label for _ in range(4)] == \
            ["b", "c", "later", "step"]             # calendar at day 100
        queue.push(far, noop, label="wheel")        # same instant, wheel
        order = []
        while (event := queue.pop_if_due(far)) is not None:
            order.append(event.label)
        assert order == ["overflow", "wheel"]


class TestEventQueueBackref:
    """The Event.queue back-reference lifecycle: cleared on *every*
    removal path, so a held event handle never pins a dead queue."""

    def test_cleared_on_pop(self):
        queue = EventQueue()
        event = queue.push(1.0, noop)
        assert event.queue is queue
        assert queue.pop() is event
        assert event.queue is None

    def test_cleared_on_pop_if_due(self):
        queue = EventQueue()
        event = queue.push(1.0, noop)
        assert queue.pop_if_due(2.0) is event
        assert event.queue is None

    def test_cleared_on_lazy_discard(self):
        queue = EventQueue()
        corpse = queue.push(1.0, noop)
        live = queue.push(2.0, noop)
        corpse.cancel()
        assert queue.pop() is live       # discards the corpse on the way
        assert corpse.queue is None

    def test_cleared_on_compaction(self):
        queue = EventQueue()
        corpses = [queue.push(float(index), noop) for index in range(10)]
        keeper = queue.push(99.0, noop)
        for corpse in corpses:
            corpse.cancel()
        queue.compact()
        assert all(corpse.queue is None for corpse in corpses)
        assert keeper.queue is queue

    def test_cleared_on_calendar_refill_of_cancelled_bucket(self):
        queue = EventQueue()
        corpse = queue.push(3.5, noop)       # lands in a wheel bucket
        live = queue.push(3.6, noop)
        corpse.cancel()
        assert queue.pop() is live           # refill sweeps the corpse
        assert corpse.queue is None

    def test_cleared_on_clear(self):
        queue = EventQueue()
        events = [queue.push(float(index), noop) for index in range(5)]
        queue.clear()
        assert all(event.queue is None for event in events)
        assert len(queue) == 0

    def test_popped_handle_does_not_pin_queue(self):
        """gc regression: a long-lived event handle (timers hold them)
        must not keep its queue — and everything the queue references —
        alive after the event left the store."""
        queue = EventQueue()
        held = [queue.push(float(index), noop) for index in range(20)]
        held[3].cancel()
        while queue.pop() is not None:
            pass
        ref = weakref.ref(queue)
        del queue
        gc.collect()
        assert ref() is None
        assert all(event.queue is None for event in held)

    def test_cancelled_handle_does_not_pin_queue_after_compact(self):
        queue = EventQueue()
        held = [queue.push(float(index), noop) for index in range(20)]
        for event in held:
            event.cancel()
        queue.compact()
        ref = weakref.ref(queue)
        del queue
        gc.collect()
        assert ref() is None

    def test_cancel_after_removal_is_safe(self):
        """cancel() on an already-popped handle must not corrupt the
        (now detached) queue's cancelled-entry accounting."""
        queue = EventQueue()
        event = queue.push(1.0, noop)
        queue.push(2.0, noop)
        assert queue.pop() is event
        event.cancel()                   # no queue: no count to corrupt
        assert len(queue) == 1
        assert queue.pop().time == 2.0

    def test_standalone_event_cancel(self):
        event = Event(1.0, 0, 0, noop)
        event.cancel()
        assert event.cancelled


def _defer_scenario(sim):
    """An event whose deferred hook schedules a *same-instant* event.

    The contract: the deferred hooks run FIFO right after the body (at
    the same virtual instant), and an event the hook schedules for that
    same instant still executes — after the hooks, in (time, priority,
    seq) order relative to other same-instant events.
    """
    order = []

    def body():
        order.append("body")
        sim.defer_to_event_end(lambda: (
            order.append("hook1"),
            sim.at(5.0, lambda: order.append("same-instant"),
                   label="same-instant")))
        sim.defer_to_event_end(lambda: (
            order.append("hook2"),
            sim.defer_to_event_end(lambda: order.append("nested"))))

    sim.at(5.0, body, label="body")
    sim.at(5.0, lambda: order.append("sibling"), label="sibling")
    sim.at(6.0, lambda: order.append("later"), label="later")
    sim.run()
    return order


class TestDeferSameInstantOrdering:
    EXPECTED = ["body", "hook1", "hook2", "nested", "sibling",
                "same-instant", "later"]

    def test_order_on_plain_kernel(self):
        order = _defer_scenario(Simulator())
        assert order == self.EXPECTED

    def test_order_on_sharded_kernel(self):
        sim = ShardedSimulator(ShardPlan({"only": 0}, 1.0))
        order = _defer_scenario(sim)
        assert order == self.EXPECTED

    def test_run_until_boundary_does_not_leak_deferrals(self):
        """Hooks deferred by the last event before a run_until boundary
        run at that instant, not at the next run call."""
        sim = Simulator()
        order = []
        sim.at(1.0, lambda: sim.defer_to_event_end(
            lambda: order.append(("hook", sim.now))))
        sim.run_until(1.0)
        assert order == [("hook", 1.0)]
        sim.at(2.0, lambda: order.append(("next", sim.now)))
        sim.run()
        assert order == [("hook", 1.0), ("next", 2.0)]
