"""Reactor: the one real-socket event loop.

Every registered transport's socket sits in one ``selectors`` selector
— a single endpoint is simply a one-transport reactor — and each
:meth:`Reactor.run_once` turn

1. computes the select timeout from the earliest pending endpoint
   deadline across *all* transports (``UdpTransport.next_deadline``,
   backed by the endpoint's deadline heap — PROTOCOL.md §15),
2. drains readable sockets through ``service_socket`` (each bounded by
   its per-turn datagram budget, so one flooded socket cannot starve
   the rest), and
3. runs ``service_timers`` only on endpoints whose
   ``AlphaEndpoint.next_deadline()`` has passed.

Step 3 is what makes 10k mostly-idle associations cheap: an idle
endpoint contributes neither a select wakeup nor a poll scan.

Pass an enabled :class:`~repro.obs.Observability` to get loop-health
histograms (``telemetry.reactor.turn_ms`` and friends — PROTOCOL.md
§16) recorded every turn; without one the instrumentation collapses to
a single boolean check.
"""

from __future__ import annotations

import selectors

from repro.obs import OBS_OFF
from repro.obs.telemetry import EventLoopTelemetry, live_clock
from repro.transports.udp import UdpTransport


class Reactor:
    """Drives any number of :class:`UdpTransport`\\ s on one selector."""

    def __init__(self, clock=live_clock, obs=None) -> None:
        self._clock = clock
        self._selector = selectors.DefaultSelector()
        self._transports: list[UdpTransport] = []
        self.telemetry = EventLoopTelemetry(obs if obs is not None else OBS_OFF)
        self.closed = False

    @property
    def transports(self) -> tuple[UdpTransport, ...]:
        return tuple(self._transports)

    def add(self, transport: UdpTransport) -> UdpTransport:
        """Register a transport; the reactor now owns its IO turns."""
        if self.closed:
            raise RuntimeError("reactor is closed")
        if transport in self._transports:
            raise ValueError("transport already registered")
        self._selector.register(
            transport.fileno(), selectors.EVENT_READ, data=transport
        )
        self._transports.append(transport)
        return transport

    def remove(self, transport: UdpTransport) -> None:
        """Unregister a transport; it stays open for another reactor."""
        self._transports.remove(transport)
        self._selector.unregister(transport.fileno())

    def next_deadline(self) -> float | None:
        """Earliest pending endpoint deadline across all transports."""
        deadlines = [
            d for t in self._transports
            if (d := t.next_deadline()) is not None
        ]
        return min(deadlines) if deadlines else None

    def run_once(self, max_wait_s: float = 0.05) -> int:
        """One reactor turn; returns the number of datagrams processed.

        Blocks at most ``max_wait_s``, less if an endpoint deadline is
        nearer; returns immediately when timer work is already due.
        """
        if self.closed:
            raise RuntimeError("reactor is closed")
        started = now = self._clock()
        timeout = max_wait_s
        deadline = self.next_deadline()
        if deadline is not None:
            timeout = min(timeout, max(0.0, deadline - now))
        processed = 0
        ready = self._selector.select(timeout)
        for key, _events in ready:
            processed += key.data.service_socket()
        now = self._clock()
        for transport in self._transports:
            due = transport.endpoint.next_deadline()
            if due is not None and due <= now:
                transport.service_timers()
        if self.telemetry.enabled:
            self.telemetry.record_turn(
                self._clock() - started, len(ready), processed
            )
        return processed

    def run_until(self, predicate, timeout_s: float = 5.0,
                  max_wait_s: float = 0.02) -> bool:
        """Run turns until ``predicate()`` is true or the deadline passes."""
        deadline = self._clock() + timeout_s
        while self._clock() < deadline:
            self.run_once(max_wait_s)
            if predicate():
                return True
        return predicate()

    def close(self, close_transports: bool = True) -> None:
        """Tear the loop down (and, by default, every transport in it)."""
        if self.closed:
            return
        for transport in self._transports:
            self._selector.unregister(transport.fileno())
            if close_transports:
                transport.close()
        self._transports.clear()
        self._selector.close()
        self.closed = True

    def __enter__(self) -> "Reactor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
