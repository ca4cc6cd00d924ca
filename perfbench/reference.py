"""A fixed reference workload that gauges the host's current speed.

On a shared host the same code runs up to ~1.5x slower for stretches
of tens of seconds, long enough to span a whole benchmark run, so no
median or minimum over one run's executions removes it. This small
discrete-event loop (heap, closures, slotted objects, dicts) shares
nothing with the program: its cost changes only with the host. Run one
slice of it after every slice of the timed window, and the ratio of
the two sums cancels most of the host's drift.
"""

from __future__ import annotations

import gc
import heapq

#: Seconds one reference slice takes at nominal speed (the 2-CPU Xeon
#: host the benchmark was defined on). Only a scale: a speed of 1.0
#: means the reference ran in exactly this time per slice.
NOMINAL_SLICE_S = 0.0007


class _Message:
    __slots__ = ("src", "item", "amount")

    def __init__(self, src: str, item: str, amount: int) -> None:
        self.src = src
        self.item = item
        self.amount = amount


class _Site:
    def __init__(self, name: str) -> None:
        self.name = name
        self.values: dict[str, int] = {}
        self.log: list[tuple[str, str, int]] = []

    def deliver(self, message: _Message) -> None:
        self.values[message.item] = (self.values.get(message.item, 0)
                                     + message.amount)
        self.log.append((message.src, message.item, message.amount))


def reference_slice(events: int = 400) -> int:
    """One slice of the reference loop; returns the deliveries made."""
    sites = [_Site(f"s{index}") for index in range(4)]
    heap: list = []
    state = 7
    now = 0.0
    for seq in range(events):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        src, dst = sites[state % 4], sites[(state >> 3) % 4]
        message = _Message(src.name, f"item{state % 64}", state % 5)
        heapq.heappush(heap, (now + (state % 100) / 10.0, seq,
                              lambda dst=dst, message=message:
                              dst.deliver(message)))
        if len(heap) > 32:
            now, _seq, action = heapq.heappop(heap)
            action()
    while heap:
        _time, _seq, action = heapq.heappop(heap)
        action()
    return sum(len(site.log) for site in sites)


def gauge() -> int:
    """One reference slice with the cyclic collector paused.

    The slice's objects all die by reference count, so pausing leaves
    the program's collection schedule as it was; without the pause a
    collection triggered inside the slice would scan the program's
    heap and bill it to the reference.
    """
    gc.disable()
    try:
        return reference_slice()
    finally:
        gc.enable()


def speed(reference_s: list[float]) -> float:
    """Host speed during an execution: nominal reference time over the
    measured one (below 1.0 on a slow stretch)."""
    return NOMINAL_SLICE_S * len(reference_s) / sum(reference_s)
