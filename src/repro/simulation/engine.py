"""A small deterministic discrete-event engine.

The paper's simulations only need a Monte-Carlo of the gossip process, but a
proper protocol-level reference — with per-message latencies, message loss,
and crash timing — requires an event scheduler.  ``simpy`` is not available
in this offline environment, so this module provides the minimal equivalent:
a priority-queue scheduler with deterministic FIFO tie-breaking, suitable for
the event-driven gossip simulator and the baseline protocols.

Determinism guarantees:

* Events firing at the same simulated time are processed in scheduling order
  (a monotonically increasing sequence number breaks ties).
* All randomness lives in the callers' RNGs; the engine itself draws nothing.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Event", "EventScheduler"]


@dataclass(order=True, frozen=True)
class Event:
    """A scheduled event.

    Events are ordered by ``(time, seq)`` so the scheduler is a stable
    priority queue.  The payload (``callback`` and ``data``) does not take
    part in ordering.
    """

    time: float
    seq: int
    callback: Callable[["EventScheduler", Any], None] = field(compare=False)
    data: Any = field(compare=False, default=None)


class EventScheduler:
    """Priority-queue event scheduler with a simulated clock.

    Examples
    --------
    >>> sched = EventScheduler()
    >>> seen = []
    >>> sched.schedule(1.0, lambda s, d: seen.append(d), "a")   # doctest: +ELLIPSIS
    Event(...)
    >>> sched.schedule(0.5, lambda s, d: seen.append(d), "b")   # doctest: +ELLIPSIS
    Event(...)
    >>> sched.run()
    2
    >>> seen
    ['b', 'a']
    """

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._counter = itertools.count()
        self._cancelled: set[int] = set()
        self.now: float = 0.0
        self.processed: int = 0

    def __len__(self) -> int:
        return len(self._queue)

    def schedule(self, delay: float, callback: Callable, data: Any = None) -> Event:
        """Schedule ``callback(scheduler, data)`` to fire ``delay`` from now.

        Negative delays are rejected: the engine never travels back in time.
        """
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        event = Event(time=self.now + delay, seq=next(self._counter), callback=callback, data=data)
        heapq.heappush(self._queue, event)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (lazy removal)."""
        self._cancelled.add(event.seq)

    def peek_time(self) -> float | None:
        """Return the firing time of the next pending event, or None if empty."""
        while self._queue and self._queue[0].seq in self._cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].time if self._queue else None

    def step(self) -> bool:
        """Process a single event; return False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.seq in self._cancelled:
                self._cancelled.discard(event.seq)
                continue
            self.now = event.time
            event.callback(self, event.data)
            self.processed += 1
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run until the queue is drained, ``until`` is reached, or ``max_events`` fire.

        Returns the number of events processed by this call.
        """
        processed_before = self.processed
        while self._queue:
            next_time = self.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            if max_events is not None and self.processed - processed_before >= max_events:
                break
            self.step()
        if until is not None and (self.peek_time() is None or self.peek_time() > until):
            self.now = max(self.now, until)
        return self.processed - processed_before
