"""Synchronous in-memory transport.

A :class:`MemoryNetwork` connects any number of endpoints (and optional
relay engines between pairs) in one process with a manually advanced
clock. Unlike the discrete-event simulator, delivery is immediate and
deterministic in FIFO order, with optional scripted loss — the minimal
harness for protocol logic, REPL experiments, and doctests. Endpoints
are polled only once ``next_deadline()`` has passed, the same rule
every other event loop follows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.core.endpoint import AlphaEndpoint, EndpointCarrier
from repro.core.relay import RelayEngine


class _Port(EndpointCarrier):
    """One endpoint's attachment: its replies join the network queue."""

    def __init__(self, endpoint: AlphaEndpoint, queue: deque) -> None:
        super().__init__(endpoint)
        self._queue = queue

    def _transmit(self, dest: str, payload: bytes) -> None:
        self._queue.append((self.endpoint.name, dest, payload))


@dataclass
class MemoryNetwork:
    """A zero-latency full mesh between registered endpoints.

    ``drop_filter(src, dst, payload) -> bool`` returning True discards
    the packet — the hook tests use to script loss.
    """

    drop_filter: Callable[[str, str, bytes], bool] | None = None
    now: float = 0.0
    _ports: dict[str, _Port] = field(default_factory=dict)
    #: Relay engines inspecting traffic between a named pair, in order.
    _relay_paths: dict[tuple[str, str], list[RelayEngine]] = field(default_factory=dict)
    #: ``(src, dst, payload)`` packets in flight, delivered FIFO.
    _queue: deque = field(default_factory=deque)
    dropped_by_relay: int = 0

    def add_endpoint(self, endpoint: AlphaEndpoint) -> AlphaEndpoint:
        if endpoint.name in self._ports:
            raise ValueError(f"duplicate endpoint {endpoint.name!r}")
        self._ports[endpoint.name] = _Port(endpoint, self._queue)
        return endpoint

    def add_relays(self, a: str, b: str, engines: list[RelayEngine]) -> None:
        """Install relay engines on the (unordered) path between a and b."""
        self._relay_paths[(a, b)] = list(engines)
        self._relay_paths[(b, a)] = list(engines)

    def connect(self, initiator: str, responder: str) -> None:
        """Run the HS1/HS2 handshake between two registered endpoints."""
        port = self._ports[initiator]
        port._transmit(*port.endpoint.connect(responder, now=self.now))
        self.run()

    def send(self, src: str, dst: str, message: bytes) -> None:
        self._ports[src].endpoint.send(dst, message)
        self.run()

    def advance(self, seconds: float) -> None:
        """Move the clock (drives retransmission timers) and settle."""
        if seconds < 0:
            raise ValueError("time only moves forward")
        self.now += seconds
        self.run()

    def run(self, max_steps: int = 10_000) -> None:
        """Deliver queued packets and wake due endpoints until quiescent."""
        for _ in range(max_steps):
            for port in self._ports.values():
                due = port.endpoint.next_deadline()
                if due is not None and due <= self.now:
                    port._dispatch(port.endpoint.poll(self.now))
            if not self._queue:
                return
            while self._queue:
                src, dst, payload = self._queue.popleft()
                if self.drop_filter is not None and self.drop_filter(
                    src, dst, payload
                ):
                    continue
                if not all(
                    engine.handle(payload, src, dst, self.now).forward
                    for engine in self._relay_paths.get((src, dst), ())
                ):
                    self.dropped_by_relay += 1
                    continue
                receiver = self._ports.get(dst)
                if receiver is not None:
                    receiver._dispatch(
                        receiver.endpoint.on_packet(payload, src, self.now)
                    )
        raise RuntimeError("memory network failed to quiesce")

    def received_by(self, name: str) -> list[bytes]:
        return [message for _, message in self._ports[name].received]
