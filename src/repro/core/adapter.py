"""Glue between the sans-IO protocol engines and the simulator.

:class:`EndpointAdapter` binds an :class:`~repro.core.endpoint.AlphaEndpoint`
to a :class:`~repro.netsim.node.Node`: received frames are fed into the
endpoint, produced packets become frames, and one simulator event, kept
at the endpoint's ``next_deadline()``, drives its timers.

:class:`RelayAdapter` installs a
:class:`~repro.core.relay.RelayEngine` as a node's forward filter, which
is all a relay is: a forwarding node that judges transit packets.
"""

from __future__ import annotations

from repro.core.endpoint import AlphaEndpoint, EndpointCarrier
from repro.core.relay import RelayConfig, RelayEngine
from repro.netsim.node import Node
from repro.netsim.packet import Frame
from repro.netsim.simulator import Event

FRAME_KIND = "alpha"


class EndpointAdapter(EndpointCarrier):
    """Runs an endpoint on a simulator node."""

    def __init__(self, endpoint: AlphaEndpoint, node: Node) -> None:
        if endpoint.name != node.name:
            raise ValueError(
                f"endpoint {endpoint.name!r} must match node {node.name!r}"
            )
        super().__init__(endpoint)
        self.node = node
        #: The pending wake-up at the endpoint's next deadline, if any.
        self._wakeup: Event | None = None
        node.app_handler = self._on_frame

    # -- application API --------------------------------------------------------

    def connect(self, peer: str) -> None:
        """Kick off a dynamic handshake with ``peer``."""
        dest, payload = self.endpoint.connect(peer, now=self.node.simulator.now)
        self._transmit(dest, payload)
        self._schedule()

    def send(self, peer: str, message: bytes) -> None:
        """Queue a protected message; a free exchange slot takes it now."""
        self.endpoint.send(peer, message)
        self._service()

    def established(self, peer: str) -> bool:
        try:
            return self.endpoint.association(peer).established
        except Exception:
            return False

    # -- plumbing -----------------------------------------------------------------

    def _on_frame(self, frame: Frame) -> None:
        out = self.endpoint.on_packet(
            frame.payload, frame.source, self.node.simulator.now
        )
        self._dispatch(out)
        self._schedule()

    def _wake(self) -> None:
        self._wakeup = None
        self._service()

    def _service(self) -> None:
        self._dispatch(self.endpoint.poll(self.node.simulator.now))
        self._schedule()

    def _schedule(self) -> None:
        """Keep exactly one wake-up, at the endpoint's next deadline."""
        deadline = self.endpoint.next_deadline()
        if deadline is None:
            return
        simulator = self.node.simulator
        deadline = max(deadline, simulator.now)
        if self._wakeup is not None:
            if self._wakeup.time <= deadline:
                return
            self._wakeup.cancel()
        self._wakeup = simulator.schedule_at(deadline, self._wake)

    def _transmit(self, dest: str, payload: bytes) -> None:
        self.node.send(
            Frame(
                source=self.node.name,
                destination=dest,
                payload=payload,
                kind=FRAME_KIND,
            )
        )


class RelayAdapter:
    """Runs a relay engine as a node's forward filter.

    With a ``device_profile`` (e.g. the AR2315 mesh router), the relay's
    *measured* cryptographic work per packet — hash and MAC operations
    from the engine's counter — is priced through the profile and
    charged as simulated processing delay before the packet moves on.
    This turns the paper's analytic CPU ceilings (Table 6, Section
    4.1.2) into observable simulation behaviour.
    """

    def __init__(
        self,
        node: Node,
        engine: RelayEngine | None = None,
        hash_fn=None,
        config: RelayConfig | None = None,
        device_profile=None,
    ) -> None:
        if engine is None:
            if hash_fn is None:
                from repro.crypto.hashes import get_hash

                hash_fn = get_hash("sha1")
            engine = RelayEngine(hash_fn, config)
        self.engine = engine
        self.node = node
        self.device_profile = device_profile
        self.busy_seconds = 0.0
        self._pending_delay = 0.0
        #: Journal captured by the last :meth:`crash` (``None`` when the
        #: crash was unjournaled — a true state-losing failure).
        self.last_journal: dict | None = None
        node.forward_filter = self._filter
        if device_profile is not None:
            node.processing_delay = self._processing_delay

    # -- churn control (PROTOCOL.md §13) ---------------------------------------

    def crash(self, journal: bool = True) -> dict | None:
        """Take the relay down mid-run.

        With ``journal=True`` the engine's compact state journal is
        snapshotted first (the crash-consistent image a real relay
        would fsync); ``journal=False`` models a relay that loses all
        state. Either way the node's radio goes dead — in-flight frames
        already queued on links still arrive at neighbours, but nothing
        new transits this hop until :meth:`restart`.
        """
        self.last_journal = self.engine.snapshot() if journal else None
        self.node.up = False
        return self.last_journal

    def restart(self, journal: dict | None = ...) -> RelayEngine:
        """Bring the relay back, rebuilding from a journal when given.

        ``journal`` defaults to whatever the last :meth:`crash`
        captured; pass ``None`` explicitly to restart state-less (the
        engine then leans entirely on its ``forward_unknown`` policy).
        The restored engine re-enters service in pass-through-until-
        anchored mode for every journaled exchange.
        """
        old = self.engine
        if journal is ...:
            journal = self.last_journal
        now = self.node.simulator.now
        if journal is not None:
            self.engine = RelayEngine.restore(
                old._hash,
                journal,
                config=old.config,
                obs=old._obs,
                name=old.name,
                ledger=old.ledger,
                now=now,
            )
        else:
            self.engine = RelayEngine(
                old._hash, old.config, obs=old._obs, name=old.name,
                ledger=old.ledger,
            )
        self.node.up = True
        return self.engine

    def _filter(self, frame: Frame) -> bool:
        if frame.kind != FRAME_KIND:
            return True  # non-ALPHA traffic is not this engine's business
        before = (
            self.engine._hash.counter.snapshot()
            if self.device_profile is not None
            else None
        )
        decision = self.engine.handle(
            frame.payload,
            frame.source,
            frame.destination,
            self.node.simulator.now,
        )
        if before is not None:
            delta = self.engine._hash.counter.diff(before)
            self._pending_delay = self._price(delta)
            self.busy_seconds += self._pending_delay
        return decision.forward

    def _price(self, delta) -> float:
        """Simulated seconds for the counted operations.

        Linear profiles price exactly (per-op base + per-byte slope);
        block-cost profiles (MMO) approximate via the average input
        size.
        """
        profile = self.device_profile
        if profile.per_block_model:
            cost = 0.0
            if delta.hash_ops:
                cost += delta.hash_ops * profile.hash_time(
                    delta.hash_bytes // delta.hash_ops
                )
            if delta.mac_ops:
                cost += delta.mac_ops * profile.mac_time(
                    delta.mac_bytes // delta.mac_ops
                )
            return cost
        ops = delta.hash_ops + delta.mac_ops
        total_bytes = delta.hash_bytes + delta.mac_bytes
        return ops * profile.hash_base_s + total_bytes * profile.hash_per_byte_s

    def _processing_delay(self, frame: Frame, stage: str) -> float:
        delay, self._pending_delay = self._pending_delay, 0.0
        return delay
