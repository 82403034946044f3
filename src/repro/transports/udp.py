"""UDP transport: ALPHA over real sockets.

Binds one :class:`~repro.core.endpoint.AlphaEndpoint` to a
non-blocking UDP socket (no asyncio, no threads). Peer names map to
``(host, port)`` addresses via an explicit directory — ALPHA identities
are hash chains, not addresses, so the mapping is pure transport
plumbing (and may change mid-association, e.g. after a HIP-style
locator update).

A transport owns no event loop. A
:class:`~repro.transports.reactor.Reactor` drives it — one selector
across any number of transports, a single endpoint being just a
one-transport reactor — calling :meth:`service_socket` when the socket
is readable and :meth:`service_timers` at the endpoint's next deadline
(PROTOCOL.md §15).

The test suite exercises this over loopback; a real deployment would
bind it to a mesh interface. Relays would run
:class:`~repro.core.relay.RelayEngine` inside a packet-forwarding hook
of their OS — out of scope here (DESIGN.md substitution table).
"""

from __future__ import annotations

import socket

from repro.core.endpoint import AlphaEndpoint, EndpointCarrier
from repro.core.resilience import ExchangeFailed, ResilienceStats
from repro.obs import EventKind
from repro.obs.telemetry import live_clock

_MAX_DATAGRAM = 65507


class UdpTransport(EndpointCarrier):
    """Binds an endpoint to a UDP socket; a reactor drives it."""

    def __init__(
        self,
        endpoint: AlphaEndpoint,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        clock=live_clock,
        max_datagrams_per_turn: int = 64,
    ) -> None:
        if max_datagrams_per_turn < 1:
            raise ValueError("need a positive per-turn datagram budget")
        super().__init__(endpoint)
        #: The endpoint's observability context (tracer + registry);
        #: disabled unless the endpoint enabled it.
        self.obs = endpoint.obs
        self._clock = clock
        #: Per-turn read budget: a datagram flood can make the socket
        #: readable forever, and an unbounded drain would starve the
        #: endpoint's timers (retransmits, handshake deadlines). Excess
        #: datagrams stay in the kernel buffer for the next turn.
        self.max_datagrams_per_turn = max_datagrams_per_turn
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._socket.bind(bind)
        self._socket.setblocking(False)
        # name -> (host, port); address -> name for inbound mapping.
        self._peer_addresses: dict[str, tuple[str, int]] = {}
        self._names_by_address: dict[tuple[str, int], str] = {}
        #: Transport-level counters: malformed datagrams, unknown-source
        #: drops, unroutable sends.
        self.stats = ResilienceStats()
        self.closed = False

    @property
    def address(self) -> tuple[str, int]:
        return self._socket.getsockname()

    def fileno(self) -> int:
        """The socket's file descriptor (what the reactor selects on)."""
        return self._socket.fileno()

    def register_peer(self, name: str, address: tuple[str, int]) -> None:
        """Teach the transport where a named peer currently lives."""
        old = self._peer_addresses.get(name)
        if old is not None:
            self._names_by_address.pop(old, None)
        self._peer_addresses[name] = address
        self._names_by_address[address] = name

    def connect(self, peer: str) -> None:
        if peer not in self._peer_addresses:
            raise LookupError(f"no address registered for {peer!r}")
        _, payload = self.endpoint.connect(peer, now=self._clock())
        self._transmit(peer, payload)

    def send(self, peer: str, message: bytes) -> None:
        """Queue a message; the reactor's next turn starts it."""
        self.endpoint.send(peer, message)

    def service_socket(self) -> int:
        """Drain up to the per-turn budget of ready datagrams.

        Called when the socket is readable; never blocks. Returns the
        number of datagrams read.
        """
        if self.closed:
            raise RuntimeError("transport is closed")
        processed = 0
        while processed < self.max_datagrams_per_turn:
            try:
                data, address = self._socket.recvfrom(_MAX_DATAGRAM)
            except BlockingIOError:
                break
            processed += 1
            src = self._names_by_address.get(address)
            if src is None:
                # Unknown sender: not in the peer directory. Common
                # mid-association (locator update / NAT rebind before
                # register_peer catches up) — count it so the operator
                # can see the directory lagging instead of losing the
                # traffic invisibly.
                self.stats.unknown_source_drops += 1
                if self.obs.enabled:
                    self.obs.tracer.emit(
                        self._clock(), self.endpoint.name,
                        EventKind.PARSE_DROP,
                        info=f"udp unknown-source {address[0]}:{address[1]}",
                    )
                    self.obs.registry.counter("udp.unknown_source_drops").inc()
                continue
            if self.obs.enabled:
                self.obs.tracer.emit(
                    self._clock(), self.endpoint.name, EventKind.UDP_RX,
                    info=f"src={src} bytes={len(data)}",
                )
                self.obs.registry.counter("udp.datagrams_rx").inc()
            try:
                out = self.endpoint.on_packet(data, src, self._clock())
            except Exception:
                # A malformed or hostile datagram must never take the
                # event loop down: drop it, count it, keep reading.
                # (The endpoint already swallows clean PacketErrors;
                # this guards against parse bugs deeper in the stack.)
                self.stats.malformed_drops += 1
                self.endpoint.note_corrupt_arrival(src)
                if self.obs.enabled:
                    self.obs.tracer.emit(
                        self._clock(), self.endpoint.name,
                        EventKind.PARSE_DROP, info=f"udp src={src}",
                    )
                    self.obs.registry.counter("udp.malformed_drops").inc()
                continue
            self._dispatch(out)
        return processed

    def service_timers(self) -> None:
        """Run the endpoint's timer turn and transmit what it produced."""
        if self.closed:
            raise RuntimeError("transport is closed")
        self._dispatch(self.endpoint.poll(self._clock()))

    def next_deadline(self) -> float | None:
        """Earliest endpoint timer — the reactor's select-timeout bound."""
        return self.endpoint.next_deadline()

    def close(self) -> None:
        if not self.closed:
            self._socket.close()
            self.closed = True

    def __enter__(self) -> "UdpTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ---------------------------------------------------------------

    def resilience_stats(self) -> ResilienceStats:
        """Transport counters merged with the endpoint's aggregate."""
        total = ResilienceStats()
        total.merge(self.stats)
        total.merge(self.endpoint.resilience_stats())
        return total

    def _transmit(self, peer: str, payload: bytes) -> None:
        address = self._peer_addresses.get(peer)
        if address is None:
            # No registered address: without a counter and a failure
            # record this is a silent black hole — the protocol keeps
            # retransmitting into it until the retry cap declares the
            # peer dead, with nothing pointing at the real cause.
            self.stats.unroutable_drops += 1
            # Same (peer, record) shape the endpoint's failures use, so
            # callers watching ``transport.failures`` see one stream.
            self.failures.append(
                (
                    peer,
                    ExchangeFailed(
                        peer=peer, assoc_id=0, seq=0, retries=0,
                        reason="no-peer-address", messages=[payload],
                    ),
                )
            )
            if self.obs.enabled:
                self.obs.tracer.emit(
                    self._clock(), self.endpoint.name, EventKind.PARSE_DROP,
                    info=f"udp no-address dst={peer} bytes={len(payload)}",
                )
                self.obs.registry.counter("udp.unroutable_drops").inc()
            return
        try:
            self._socket.sendto(payload, address)
        except OSError:
            return  # transient send failure; retransmission recovers
        if self.obs.enabled:
            self.obs.tracer.emit(
                self._clock(), self.endpoint.name, EventKind.UDP_TX,
                info=f"dst={peer} bytes={len(payload)}",
            )
            self.obs.registry.counter("udp.datagrams_tx").inc()
