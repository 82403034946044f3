"""Discrete-event simulation core.

A binary-heap event queue with a simulated clock. Time is a float in
seconds; ties are broken by insertion order so runs are deterministic.
Heap entries are ``(time, seq, event)`` tuples, ordered by native
float/int comparison; ``seq`` is unique, so events are never compared.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable


class Event:
    """A scheduled callback. Returned by :meth:`Simulator.schedule`.

    Cancellation is lazy: the event stays in the heap but is skipped when
    popped, the standard trick for heap-based schedulers.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable, args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        # Drop references so cancelled events cannot keep large protocol
        # state alive while they wait to be popped.
        self.callback = None
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {status})"


class Simulator:
    """Event loop with a simulated clock.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self.events_processed = 0

    def schedule(self, delay: float, callback: Callable, *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self.now:
            raise ValueError(f"cannot schedule into the past (t={time} < now={self.now})")
        seq = next(self._sequence)
        event = Event(time, seq, callback, args)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def step(self) -> bool:
        """Run the next pending event. Returns False when none remain."""
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            if event.cancelled:
                continue
            self.now = event.time
            self.events_processed += 1
            event.callback(*event.args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time; the clock is then
            advanced exactly to ``until``.
        max_events:
            Safety valve for runaway protocols; raises ``RuntimeError``
            when exceeded.
        """
        processed = 0
        while self._queue:
            head = self._queue[0][2]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and head.time > until:
                self.now = until
                return
            if max_events is not None and processed >= max_events:
                raise RuntimeError(f"exceeded max_events={max_events} at t={self.now}")
            self.step()
            processed += 1
        if until is not None and until > self.now:
            self.now = until

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)
