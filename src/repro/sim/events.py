"""Event objects and the pending-event queue.

Events are ordered by ``(time, priority, seq)``. The monotonically
increasing ``seq`` makes ordering total and stable: two events scheduled
for the same instant fire in scheduling order, which keeps runs
deterministic regardless of queue internals.

:class:`EventQueue` is a calendar-queue / timer-wheel hybrid. Virtual
time is cut into fixed-width *days*; an event lands in an O(1) unsorted
wheel bucket for its day, a far-future overflow heap, or the small
sorted *current-day* run that feeds ``pop``. Most events (link
deliveries a few time units out, timers tens of units out) take the
O(1) bucket path and only ever pay comparison costs against the handful
of events sharing their day — not against every pending retransmission
timer in the run. The structure only changes where an event waits,
never when it pops.

Cancellation is lazy (a cancelled event stays stored until it reaches
the front), but the queue tracks how many cancelled entries it is
carrying and *compacts* when they dominate: long chaos runs cancel
thousands of timers (retransmission timers stopped by acks, transaction
timeouts disarmed by commits). A cancelled wheel entry costs nothing
until its day is reached.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable

#: Compaction triggers only above this store size (small queues never
#: pay a rebuild) and only when cancelled entries are the majority.
COMPACT_MIN_HEAP = 1024

#: Width of one calendar day in virtual-time units. Link delays and
#: timer periods in this codebase are O(1)–O(10) units, so a day holds
#: only the events of one delivery "generation".
DAY_WIDTH = 1.0

#: Days covered by the wheel before events spill to the overflow heap.
WHEEL_DAYS = 256


@dataclass(slots=True)
class Event:
    """A pending callback, comparable by (time, priority, seq).

    ``slots=True`` drops the per-event ``__dict__``: simulations
    allocate one Event per arrival, message hop, and timer tick, so the
    slimmer layout measurably cuts allocation and comparison cost in
    long runs.
    """

    time: float
    priority: int
    seq: int
    action: Callable[[], Any] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)
    #: Back-reference to the owning queue while the event sits in its
    #: store (cleared on removal — including lazy discards and
    #: compaction — so a popped handle can never keep a dead queue
    #: alive) — lets cancel() keep the queue's cancelled-entry count
    #: exact without a scan.
    queue: "EventQueue | None" = field(compare=False, default=None,
                                       repr=False)

    def __lt__(self, other: "Event") -> bool:
        # Hand-written instead of dataclass(order=True): the generated
        # method builds two field tuples per comparison, and the current
        # run's binary insert and sort call it for every same-day event.
        # Times almost always differ, so the common path is one load
        # and one float compare per side.
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.queue is not None:
            self.queue._note_cancel()


class EventQueue:
    """Calendar-queue / timer-wheel hybrid popping in exact
    ``(time, priority, seq)`` order.

    Storage tiers, by how far ahead an event's *day*
    (``floor(time / DAY_WIDTH)``) lies:

    * day <= current day — the **current run**, a list kept sorted in
      *descending* ``(time, priority, seq)`` order. ``pop`` only ever
      touches this tier, and because the next event sits at the tail it
      is a comparison-free ``list.pop()`` — where a binary heap pays
      ``~2·log(pending)`` Python-level ``__lt__`` calls sifting down.
    * within ``WHEEL_DAYS`` days — an **unsorted wheel bucket**;
      push is an O(1) list append with zero comparisons.
    * beyond the wheel — the **overflow heap** (far-future events are
      rare: recovery backstops, experiment horizons).

    When the current run drains, ``_refill`` advances the calendar to
    the next populated day — the nearest non-empty wheel bucket or the
    overflow head's day, whichever is earlier — and sorts that day's
    survivors as the new current run (one Timsort over the few events
    sharing a day, instead of per-event sifting against every pending
    timer in the simulation). A wheel bucket holds exactly one day's
    events (a later day mapping to the same slot cannot be pushed until
    this day has been consumed — the wheel spans fewer days than one
    lap), so refill never has to sift entries back.

    The pop order is structural: every tier orders by the same total
    comparator, later days only hold strictly later times, and pushes
    into a day the calendar already passed binary-insert into the
    current run where the comparator places them.
    """

    def __init__(self) -> None:
        self._wheel: list[list[Event]] = [[] for _ in range(WHEEL_DAYS)]
        self._wheel_count = 0      # entries (live + cancelled) in buckets
        self._day = 0              # the day the current run covers
        #: Descending (time, priority, seq) — the next event is last.
        self._current: list[Event] = []
        self._overflow: list[Event] = []
        self._seq = 0
        self._cancelled = 0        # cancelled entries still stored
        self._size = 0             # total entries stored (live + cancelled)
        self.compactions = 0
        #: Calendar jumps taken by :meth:`_refill` (observability).
        self.refills = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) pending events."""
        return self._size - self._cancelled

    def push(self, time: float, action: Callable[[], Any], priority: int = 0,
             label: str = "") -> Event:
        """Enqueue *action* to run at *time*; return a cancellable handle."""
        event = Event(time, priority, self._seq, action, label, queue=self)
        self._seq += 1
        self._size += 1
        day = int(time / DAY_WIDTH)
        gap = day - self._day
        if gap <= 0:
            # Today or a day the calendar already passed (possible after
            # an idle-gap jump): binary-insert into the descending
            # current run. The comparator is total (seq breaks every
            # tie), so the slot is unique.
            current = self._current
            lo, hi = 0, len(current)
            while lo < hi:
                mid = (lo + hi) // 2
                if event < current[mid]:
                    lo = mid + 1
                else:
                    hi = mid
            current.insert(lo, event)
        elif gap < WHEEL_DAYS:
            self._wheel[day % WHEEL_DAYS].append(event)
            self._wheel_count += 1
        else:
            heapq.heappush(self._overflow, event)
        return event

    def pop(self) -> Event | None:
        """Remove and return the earliest live event, or None if drained."""
        current = self._current
        while True:
            while current:
                event = current.pop()
                event.queue = None
                self._size -= 1
                if not event.cancelled:
                    return event
                self._cancelled -= 1
            if not self._refill():
                return None

    def peek_time(self) -> float | None:
        """Time of the earliest live event without removing it."""
        current = self._current
        while True:
            while current and current[-1].cancelled:
                current.pop().queue = None
                self._cancelled -= 1
                self._size -= 1
            if current:
                return current[-1].time
            if not self._refill():
                return None

    def pop_if_due(self, time: float) -> Event | None:
        """Pop the earliest live event iff it is due by *time*."""
        current = self._current
        while True:
            while current:
                event = current[-1]
                if event.cancelled:
                    current.pop().queue = None
                    self._cancelled -= 1
                    self._size -= 1
                    continue
                if event.time > time:
                    return None
                current.pop()
                event.queue = None
                self._size -= 1
                return event
            if not self._refill():
                return None

    def _refill(self) -> bool:
        """Advance the calendar to the next populated day.

        Precondition: the current heap is empty. Moves that day's wheel
        bucket — and any overflow entries whose day has come within
        reach — into the current heap. Returns False when nothing is
        stored anywhere.
        """
        overflow = self._overflow
        while overflow and overflow[0].cancelled:
            # Keep the overflow head live so its day is meaningful.
            heapq.heappop(overflow).queue = None
            self._cancelled -= 1
            self._size -= 1
        wheel_day = None
        if self._wheel_count:
            # The nearest populated bucket is at most one lap away.
            for step in range(1, WHEEL_DAYS + 1):
                if self._wheel[(self._day + step) % WHEEL_DAYS]:
                    wheel_day = self._day + step
                    break
        over_day = (int(overflow[0].time / DAY_WIDTH)
                    if overflow else None)
        if wheel_day is None and over_day is None:
            return False
        if over_day is not None and (wheel_day is None
                                     or over_day < wheel_day):
            target = over_day
        else:
            target = wheel_day
        self._day = target
        self.refills += 1
        current = self._current
        if target == wheel_day:
            bucket = self._wheel[target % WHEEL_DAYS]
            self._wheel_count -= len(bucket)
            for event in bucket:
                if event.cancelled:
                    event.queue = None
                    self._cancelled -= 1
                    self._size -= 1
                else:
                    current.append(event)
            bucket.clear()
        end = (target + 1) * DAY_WIDTH
        while overflow and overflow[0].time < end:
            event = heapq.heappop(overflow)
            if event.cancelled:
                event.queue = None
                self._cancelled -= 1
                self._size -= 1
            else:
                current.append(event)
        current.sort(reverse=True)
        return True

    # -- compaction --------------------------------------------------------

    def _note_cancel(self) -> None:
        """One stored event was cancelled; compact if corpses dominate."""
        self._cancelled += 1
        if (self._size > COMPACT_MIN_HEAP
                and self._cancelled * 2 > self._size):
            self.compact()

    def compact(self) -> None:
        """Drop every cancelled entry from all three tiers.

        O(stored). Order is preserved because events compare by
        ``(time, priority, seq)``, independent of storage layout. Each
        dropped corpse's back-reference is cleared so popped-and-held
        handles never pin the queue.
        """
        self._current = self._sweep(self._current)  # sweep keeps order
        self._overflow = self._sweep(self._overflow)
        heapq.heapify(self._overflow)
        for index, bucket in enumerate(self._wheel):
            if bucket:
                survivors = self._sweep(bucket)
                self._wheel_count -= len(bucket) - len(survivors)
                self._wheel[index] = survivors
        self._cancelled = 0
        self.compactions += 1

    def _sweep(self, events: list[Event]) -> list[Event]:
        survivors = []
        for event in events:
            if event.cancelled:
                event.queue = None
                self._size -= 1
            else:
                survivors.append(event)
        return survivors

    def clear(self) -> None:
        for store in (self._current, self._overflow, *self._wheel):
            for event in store:
                event.queue = None
            store.clear()
        self._wheel_count = 0
        self._cancelled = 0
        self._size = 0

