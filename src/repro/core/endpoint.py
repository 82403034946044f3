"""The public entry point: an ALPHA host.

An :class:`AlphaEndpoint` plays both roles of the paper's duplex design:
for every association it owns a :class:`~repro.core.signer.SignerSession`
(outbound simplex channel) and a
:class:`~repro.core.verifier.VerifierSession` (inbound simplex channel),
each backed by its own pair of hash chains — the four-anchor shared
context of Section 3.1.

The endpoint is sans-IO like the sessions underneath: ``connect``,
``send``, ``on_packet`` and ``poll`` exchange ``(peer, payload)`` pairs,
and a transport adapter (:mod:`repro.core.adapter`) moves them over the
simulator. Applications typically use exactly four methods::

    ep = AlphaEndpoint("s", EndpointConfig(mode=Mode.CUMULATIVE))
    hs1 = ep.connect("v", now=0.0)        # -> send to "v"
    ep.send("v", b"payload")              # queue protected data
    out = ep.on_packet(data, "v", now)    # feed received packets
    out = ep.poll(now)                    # drain timers/new exchanges
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from repro.core.bootstrap import (
    ChainSet,
    PeerAnchors,
    build_handshake,
    validate_handshake,
)
from repro.core.adaptive import AdaptiveConfig, AdaptiveController
from repro.core.exceptions import AlphaError, ProtocolError
from repro.core.hashchain import ACKNOWLEDGMENT_TAGS, ChainVerifier
from repro.core.modes import Mode, ReliabilityMode, RetransmitPolicy
from repro.core.packets import (
    A1Packet,
    A2Packet,
    HandshakePacket,
    PacketError,
    S1Packet,
    S2Packet,
    decode_packet,
)
from repro.core.resilience import (
    ExchangeFailed,
    PathManager,
    ResilienceStats,
)
from repro.core.signer import ChannelConfig, DeliveryReport, SignerSession
from repro.core.verifier import DeliveredMessage, VerifierSession
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import HashFunction, OpCounter, get_hash
from repro.crypto.signatures import SignatureScheme
from repro.obs import OBS_OFF, EventKind, Observability
from repro.obs import telemetry
from repro.obs.linkhealth import HealthLedger

#: Fused-split corruption share above which a terminal rto-escape is
#: read as "the peer is alive, the path is chewing packets" — worth a
#: re-bootstrap even without ``auto_rebootstrap`` (PROTOCOL.md §16).
#: Matches the signer's ``_CAUSE_BIAS_THRESHOLD`` posture bias.
_ESCAPE_CORRUPTION_BIAS = 0.6


@dataclass(frozen=True)
class EndpointConfig:
    """Endpoint-wide protocol parameters."""

    hash_name: str = "sha1"
    chain_length: int = 2048
    mode: Mode = Mode.BASE
    reliability: ReliabilityMode = ReliabilityMode.UNRELIABLE
    batch_size: int = 8
    #: Concurrent interlocked exchanges in flight (ChannelConfig
    #: semantics; Section 3.2.1's role binding makes >1 safe). 1 keeps
    #: the paper's strictly sequential scheme.
    max_outstanding: int = 1
    retransmit_timeout_s: float = 0.25
    max_retries: int = 6
    retransmit_policy: RetransmitPolicy = RetransmitPolicy.SELECTIVE_REPEAT
    #: RFC 6298 timeout adaptation for the S/A interlock (see
    #: ChannelConfig for the per-knob semantics).
    adaptive_rto: bool = True
    rto_min_s: float = 0.05
    rto_max_s: float = 10.0
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.1
    #: Storm-proofing knobs (PROTOCOL.md §12; see ChannelConfig for the
    #: per-knob semantics): nack-storm damper token bucket and the
    #: escape-hatch probe after K consecutive max-RTO timeouts.
    nack_bucket: int = 4
    nack_refill_rtos: float = 1.0
    rto_probe_after: int = 2
    probe_budget: int = 2
    #: Consecutive failed exchanges after which the peer is declared
    #: dead and the association marked DOWN (0 disables detection).
    dead_peer_threshold: int = 3
    #: When a peer is declared dead, immediately start a replacement
    #: handshake and migrate queued traffic onto it; without it, queued
    #: messages fail terminally and sends raise until reconnected.
    auto_rebootstrap: bool = False
    resync_window: int = 128
    #: Refuse unauthenticated handshakes from peers.
    require_protected_handshake: bool = False
    #: Verifier-side buffered exchange limit.
    max_buffered_exchanges: int = 8
    #: Start a replacement handshake when this few exchanges remain on
    #: the outbound signature chain (0 disables automatic re-keying).
    #: Chains are finite — the paper uses "a different set of hash
    #: chains for each path", and a long-lived association needs fresh
    #: chains before the old ones run dry.
    rekey_threshold: int = 4
    #: Willingness policy (paper Section 3.5): called with each decoded
    #: S1; returning False withholds the A1, so relays never forward the
    #: sender's data packets. ``None`` accepts everything.
    accept_policy: Callable | None = None
    #: Enable the observability layer (metrics registry + exchange
    #: tracer, PROTOCOL.md §9). Off by default: the disabled cost is one
    #: boolean check per instrumented call site. An explicit ``obs``
    #: argument to :class:`AlphaEndpoint` overrides this flag.
    observe: bool = False
    #: Attach an :class:`~repro.core.adaptive.AdaptiveController` to
    #: every association's signer: mode, batch size, and pipelining
    #: depth then track the observed loss/queue/RTT signals instead of
    #: staying pinned to the static values above (PROTOCOL.md §10).
    adaptive: bool = False
    #: Controller tuning; ``None`` uses the AdaptiveConfig defaults.
    adaptive_config: AdaptiveConfig | None = None
    #: Mid-association path failover (PROTOCOL.md §13): attach a
    #: :class:`~repro.core.resilience.PathManager` and, when a hop is
    #: classified dead, promote a registered backup path and re-present
    #: the in-flight S1s through it instead of failing terminally.
    failover: bool = False
    #: Per-peer failover budget (see PathManager).
    max_failovers: int = 8
    #: Ledger loss-spike trigger: this many timeout retransmits with no
    #: completed exchange in between classifies the active hop dead and
    #: fails over early, before the escape hatch exhausts (0 disables
    #: the spike trigger; escape/dead-peer classification still runs).
    failover_spike_retransmits: int = 0
    #: Routing callback invoked as ``(peer, old, new)`` with the demoted
    #: and promoted :class:`PathCandidate` on every switch — the
    #: transport layer re-points next-hops here. ``None`` means routing
    #: is external (e.g. the netsim already reroutes).
    on_path_switch: Callable | None = None

    def __post_init__(self) -> None:
        # A fresh chain pair supports ``chain_length // 2`` exchanges; at
        # or below the threshold every new association would start its
        # own replacement handshake, forever.
        runway = self.chain_length // 2
        if self.rekey_threshold > 0 and runway <= self.rekey_threshold:
            raise ValueError(
                f"rekey_threshold={self.rekey_threshold} re-keys every fresh"
                f" association (chain_length={self.chain_length} gives"
                f" {runway} exchanges); lengthen the chain or set"
                " rekey_threshold=0"
            )

    def channel_config(self) -> ChannelConfig:
        return ChannelConfig(
            mode=self.mode,
            reliability=self.reliability,
            batch_size=self.batch_size,
            max_outstanding=self.max_outstanding,
            retransmit_timeout_s=self.retransmit_timeout_s,
            max_retries=self.max_retries,
            retransmit_policy=self.retransmit_policy,
            adaptive_rto=self.adaptive_rto,
            rto_min_s=self.rto_min_s,
            rto_max_s=self.rto_max_s,
            backoff_factor=self.backoff_factor,
            backoff_jitter=self.backoff_jitter,
            nack_bucket=self.nack_bucket,
            nack_refill_rtos=self.nack_refill_rtos,
            rto_probe_after=self.rto_probe_after,
            probe_budget=self.probe_budget,
        )


@dataclass
class Association:
    """Duplex security context with one peer."""

    assoc_id: int
    peer: str
    initiator: bool
    chains: ChainSet
    signer: SignerSession | None = None
    verifier: VerifierSession | None = None
    established: bool = False
    hs_nonce: bytes = b""
    hs_bytes: bytes = b""
    hs_deadline: float = 0.0
    hs_retries: int = 0
    pending_sends: list[bytes] = field(default_factory=list)
    #: assoc_id of the re-keying replacement, once one was initiated.
    replacement_id: int | None = None
    #: True once superseded by a replacement (kept around to drain).
    retired: bool = False
    #: Superseded by the *peer's* re-key: the peer may still be
    #: finishing exchanges on this association, so it is kept until no
    #: packet has arrived on it for a whole retry budget (this instant).
    linger_until: float | None = None
    #: Dead-peer detection tripped: the peer stopped answering.
    down: bool = False
    #: Feedback controller over the signer's channel (adaptive mode).
    controller: AdaptiveController | None = None
    #: Loss-spike watermark: (timeout retransmits, completed exchanges)
    #: at the last spike check, so the trigger measures the delta since
    #: the last completion instead of lifetime totals.
    spike_marker: tuple = (0, 0)
    #: Earliest deadline currently armed for this association on the
    #: endpoint's timer heap (``None`` when no timer is armed). Purely
    #: a push-suppression mark: later deadlines than this may linger as
    #: stale heap entries, which cost one spurious no-op service each.
    armed_deadline: float | None = None
    #: Monotonic installation order on the owning endpoint. Poll turns
    #: service due associations in this order, so a turn emits packets
    #: exactly as a scan of every association in ``_by_id`` order would
    #: — packet order is behaviour wherever the link draws per-packet
    #: randomness.
    install_seq: int = 0


@dataclass
class EndpointOutput:
    """Everything one call produced: packets to send and app events."""

    replies: list[tuple[str, bytes]] = field(default_factory=list)
    delivered: list[tuple[str, DeliveredMessage]] = field(default_factory=list)
    reports: list[tuple[str, DeliveryReport]] = field(default_factory=list)
    #: Terminal failures: exchanges or handshakes that hit their retry
    #: cap (dead peer, persistent partition). One entry per exchange.
    failures: list[tuple[str, ExchangeFailed]] = field(default_factory=list)


class EndpointCarrier:
    """Base of everything that carries one endpoint's packets.

    Holds the single routing of :class:`EndpointOutput`: replies go to
    :meth:`_transmit`, which each carrier (simulator node, UDP socket,
    in-memory queue) supplies; deliveries, delivery reports and terminal
    failures collect here.
    """

    def __init__(self, endpoint: AlphaEndpoint) -> None:
        self.endpoint = endpoint
        self.received: list[tuple[str, bytes]] = []
        self.reports: list[tuple[str, DeliveryReport]] = []
        self.failures: list[tuple[str, ExchangeFailed]] = []

    def _dispatch(self, out: EndpointOutput) -> None:
        for dest, payload in out.replies:
            self._transmit(dest, payload)
        for peer, message in out.delivered:
            self.received.append((peer, message.message))
        self.reports.extend(out.reports)
        self.failures.extend(out.failures)

    def _transmit(self, dest: str, payload: bytes) -> None:
        raise NotImplementedError


class AlphaEndpoint:
    """A host speaking ALPHA on any number of associations."""

    def __init__(
        self,
        name: str,
        config: EndpointConfig | None = None,
        seed: int | str | None = None,
        identity: SignatureScheme | None = None,
        counter: OpCounter | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.name = name
        self.config = config if config is not None else EndpointConfig()
        if obs is not None:
            self.obs = obs
        elif self.config.observe:
            self.obs = Observability()
        else:
            self.obs = OBS_OFF
        self.rng = DRBG(seed if seed is not None else f"endpoint:{name}")
        self.identity = identity
        self.hash_fn: HashFunction = get_hash(self.config.hash_name, counter)
        self._by_peer: dict[str, Association] = {}
        self._by_id: dict[int, Association] = {}
        #: Deadline heap (PROTOCOL.md §15): ``(deadline, assoc_id)``
        #: entries, earliest first. Stale entries (deleted associations,
        #: superseded deadlines) are dropped lazily on pop.
        self._timers: list[tuple[float, int]] = []
        #: Associations with non-timer work pending (sends, reconfigures,
        #: installs, retirements) that the next :meth:`poll` must service
        #: regardless of any armed deadline. Packet activity is serviced
        #: inline by :meth:`on_packet` instead.
        self._dirty: set[int] = set()
        #: Deadline-heap service lag histogram (``telemetry.heap.lag_ms``,
        #: PROTOCOL.md §16): how far past its armed deadline a timer pops.
        #: Measured purely in the injected clock domain — the real-clock
        #: lint over ``repro.core`` stays airtight. The instrument is the
        #: registry's shared null when observability is off.
        self._heap_lag = self.obs.registry.histogram(
            telemetry.HEAP_LAG_MS, telemetry.MS_BOUNDS
        )
        #: Installation counter backing ``Association.install_seq``.
        self._installs = 0
        #: Endpoint-level resilience counters (handshake failures, dead
        #: peers, parse drops); per-signer counters are folded in by
        #: :meth:`resilience_stats`.
        self.stats = ResilienceStats()
        #: Counters absorbed from retired associations' signers. Kept
        #: separate from :attr:`stats` so live-signer blocks are never
        #: merged into a block that outlives them — snapshots stay
        #: idempotent no matter how often they are taken.
        self._drained = ResilienceStats()
        #: Worst max-RTO pin streak among retired signers (see
        #: :meth:`max_rto_streak_peak`).
        self._drained_rto_peak = 0
        #: Per-link health ledger (PROTOCOL.md §11). Entries outlive
        #: associations, so re-keyed channels inherit the link's loss
        #: history instead of relearning it. Maintained whenever the
        #: endpoint is adaptive (the controller seeds from it) or
        #: observed (the ledger feeds ``link.*`` metrics); otherwise it
        #: stays empty and the engines skip their ``link`` hooks.
        self.links = HealthLedger(
            self.obs.registry if self.obs.enabled else None
        )
        self._track_links = self.config.adaptive or self.obs.enabled
        #: Ranked alternate relay paths per peer (PROTOCOL.md §13).
        #: Populated by the application/transport via
        #: ``endpoint.paths.register(peer, path_id, hops)``.
        self.paths: PathManager | None = (
            PathManager(self.config.max_failovers)
            if self.config.failover
            else None
        )

    # -- association management ------------------------------------------------

    def connect(self, peer: str, now: float = 0.0) -> tuple[str, bytes]:
        """Start a dynamic handshake. Returns the HS1 to transmit."""
        existing = self._by_peer.get(peer)
        if existing is not None:
            if not existing.down:
                raise ProtocolError(f"association with {peer} already exists")
            # Reconnecting after dead-peer detection: retire the DOWN
            # association and let the fresh handshake supersede it.
            existing.retired = True
            self._mark_dirty(existing)
            del self._by_peer[peer]
        assoc_id = self.rng.random_int(63)
        chains = self._create_chains()
        packet = build_handshake(
            assoc_id=assoc_id,
            chains=chains,
            hash_name=self.config.hash_name,
            rng=self.rng.fork(f"hs:{peer}"),
            is_response=False,
            identity=self.identity,
        )
        assoc = Association(
            assoc_id=assoc_id,
            peer=peer,
            initiator=True,
            chains=chains,
            hs_nonce=packet.nonce,
            hs_bytes=packet.encode(),
            hs_deadline=now + self.config.retransmit_timeout_s,
        )
        self._by_peer[peer] = assoc
        self._admit(assoc)
        self._arm(assoc, assoc.hs_deadline)
        if self.obs.enabled:
            self.obs.tracer.emit(
                now, self.name, EventKind.HS_SEND, assoc_id, info="hs1"
            )
            self.obs.registry.counter("endpoint.handshakes_started").inc()
        return (peer, assoc.hs_bytes)

    def association(self, peer: str) -> Association:
        try:
            return self._by_peer[peer]
        except KeyError:
            raise ProtocolError(f"no association with {peer}") from None

    def association_by_id(self, assoc_id: int) -> Association:
        try:
            return self._by_id[assoc_id]
        except KeyError:
            raise ProtocolError(f"no association {assoc_id}") from None

    @property
    def peers(self) -> list[str]:
        return sorted(self._by_peer)

    # -- data plane --------------------------------------------------------------

    def set_channel_config(self, peer: str, config: ChannelConfig) -> None:
        """Adapt the outbound channel to ``peer`` (mode, batch, policy)."""
        assoc = self.association(peer)
        if not assoc.established:
            raise ProtocolError(f"association with {peer} not yet established")
        assoc.signer.reconfigure(config)
        self._mark_dirty(assoc)

    def send(self, peer: str, message: bytes) -> None:
        """Queue a message for integrity-protected delivery to ``peer``."""
        assoc = self.association(peer)
        if assoc.down:
            raise ProtocolError(
                f"association with {peer} is DOWN (dead peer); reconnect first"
            )
        if not assoc.established:
            assoc.pending_sends.append(message)
            return
        assoc.signer.submit(message)
        self._mark_dirty(assoc)

    def peer_down(self, peer: str) -> bool:
        """True once dead-peer detection declared ``peer`` unreachable."""
        assoc = self._by_peer.get(peer)
        return assoc is not None and assoc.down

    def note_corrupt_arrival(self, src: str) -> None:
        """Charge one damaged arrival from ``src`` to the per-peer ledger.

        Transports call this for datagrams that died before or inside
        the parser — the drops that previously surfaced only in
        ``udp.*`` counters and left the ledger (and therefore the wire
        telemetry summary) blind to pure corruption.
        """
        if self._track_links:
            self.links.link(src).on_corrupt_arrival()

    def on_packet(self, data: bytes, src: str, now: float) -> EndpointOutput:
        """Process one received packet; returns packets to send + events."""
        out = EndpointOutput()
        try:
            packet = decode_packet(data, self.hash_fn.digest_size)
        except PacketError:
            self.stats.corrupt_drops += 1
            # Keyed by source peer unconditionally: parser deaths are
            # exactly the corruption evidence the ledger summary carries
            # back to the signer (PROTOCOL.md §16), and they happen
            # before any association lookup can vouch for the source.
            self.note_corrupt_arrival(src)
            if self.obs.enabled:
                self.obs.tracer.emit(
                    now, self.name, EventKind.PARSE_DROP, info=f"src={src}"
                )
                self.obs.registry.counter("endpoint.parse_drops").inc()
            return out
        if isinstance(packet, HandshakePacket):
            if self.obs.enabled:
                self.obs.tracer.emit(
                    now, self.name, EventKind.HS_RECV, packet.assoc_id,
                    info="hs2" if packet.is_response else "hs1",
                )
            self._on_handshake(packet, src, out, now)
            return out
        assoc = self._by_id.get(packet.assoc_id)
        if assoc is None or not assoc.established or assoc.peer != src:
            return out
        if assoc.linger_until is not None:
            assoc.linger_until = now + self._retry_budget_s()
        if isinstance(packet, S1Packet):
            a1 = assoc.verifier.handle_s1(packet, now)
            if a1 is not None:
                out.replies.append((src, a1))
        elif isinstance(packet, S2Packet):
            a2 = assoc.verifier.handle_s2(packet, now)
            if a2 is not None:
                out.replies.append((src, a2))
            for message in assoc.verifier.drain_delivered():
                out.delivered.append((src, message))
        elif isinstance(packet, A1Packet):
            for s2 in assoc.signer.handle_a1(packet, now):
                out.replies.append((src, s2))
        elif isinstance(packet, A2Packet):
            for s2 in assoc.signer.handle_a2(packet, now):
                out.replies.append((src, s2))
        # Packet activity moved deadlines and may have completed
        # exchanges: service the association now (signer output, re-key
        # check, drain, re-arm) rather than leave it for a poll turn.
        self._service_association(assoc, now, out)
        return out

    def poll(self, now: float) -> EndpointOutput:
        """Drive due timers and dirty associations.

        Only associations whose armed deadline has passed — plus those
        marked dirty by a send, reconfigure, install or retirement — are
        serviced; everything else is untouched, so the cost of a poll
        turn is driven by due work, not by how many associations exist.
        """
        out = EndpointOutput()
        due: dict[int, Association] = {}
        observe_lag = self.obs.enabled
        while self._timers and self._timers[0][0] <= now:
            deadline, assoc_id = heapq.heappop(self._timers)
            assoc = self._by_id.get(assoc_id)
            if assoc is None:
                continue  # association already drained; stale entry
            if observe_lag:
                self._heap_lag.observe((now - deadline) * 1000.0)
            if assoc.armed_deadline is not None and deadline >= assoc.armed_deadline:
                assoc.armed_deadline = None
            due[assoc_id] = assoc
        if self._dirty:
            for assoc_id in self._dirty:
                assoc = self._by_id.get(assoc_id)
                if assoc is not None:
                    due[assoc_id] = assoc
            self._dirty.clear()
        if self.config.adaptive:
            # Controllers are time-sampled feedback loops whose EWMA
            # sampling was calibrated against one tick per poll turn for
            # every controller. Keep that cadence — inside the decision
            # interval the tick is a cheap early return, and due
            # associations tick in their own service slot. A retune makes the association due so the
            # new channel config shapes exchanges started this turn.
            for assoc in list(self._by_id.values()):
                if (
                    assoc.controller is None
                    or not assoc.established
                    or assoc.assoc_id in due
                ):
                    continue
                if assoc.controller.poll(now) is not None:
                    due[assoc.assoc_id] = assoc
        # Installation order, not heap-pop order: a turn's packet order
        # is behaviour wherever the link draws per-packet randomness.
        for assoc in sorted(due.values(), key=lambda a: a.install_seq):
            self._service_association(assoc, now, out)
        return out

    def next_deadline(self) -> float | None:
        """Earliest instant :meth:`poll` has work, or ``None`` when idle.

        This is the whole wake-up contract: call :meth:`on_packet` when
        a packet arrives and :meth:`poll` once the clock reaches this
        instant (``0.0`` means now). Every event loop — the simulator
        adapter, the reactor, the in-memory network — wakes the
        endpoint by this rule alone. May be conservatively early when a
        stale heap entry survives — never late.
        """
        if self._dirty:
            return 0.0
        return self._timers[0][0] if self._timers else None

    def _service_association(
        self, assoc: Association, now: float, out: EndpointOutput
    ) -> None:
        """One association's poll turn: timers, rekey check, drain."""
        if not assoc.established:
            # Initiator-side HS1 retransmission (the paper notes S1
            # and A1 class packets need robust retransmission; the
            # same holds for the optional handshake). The retry cap
            # is terminal: a handshake against a dead peer must fail
            # observably, not retransmit forever.
            if assoc.initiator and now >= assoc.hs_deadline:
                if assoc.hs_retries >= self.config.max_retries:
                    self._fail_handshake(assoc, out, now)
                    return
                assoc.hs_retries += 1
                assoc.hs_deadline = now + self.config.retransmit_timeout_s
                out.replies.append((assoc.peer, assoc.hs_bytes))
                if self.obs.enabled:
                    self.obs.tracer.emit(
                        now, self.name, EventKind.RETRANSMIT,
                        assoc.assoc_id,
                        info=f"hs1 try={assoc.hs_retries}",
                    )
            if assoc.initiator:
                self._arm(assoc, assoc.hs_deadline)
            return
        self._collect_signer_output(assoc, now, out)
        self._maybe_rekey(assoc, now, out)
        if assoc.retired and assoc.signer.idle:
            if assoc.linger_until is not None and now < assoc.linger_until:
                # The peer's in-flight traffic may still be arriving.
                self._arm(assoc, assoc.linger_until)
                return
            # Preserve the drained association's counters before it goes.
            self._drained.merge(assoc.signer.stats)
            self._drained_rto_peak = max(
                self._drained_rto_peak, assoc.signer.max_rto_streak_peak
            )
            if assoc.verifier is not None:
                self._drained.nack_suppressed += assoc.verifier.nacks_suppressed
            del self._by_id[assoc.assoc_id]
            # Release the peer mapping too: a drained association left
            # in ``_by_peer`` would pin the whole signer/verifier state
            # in memory forever (the leak every long-lived endpoint
            # would eventually die of).
            if self._by_peer.get(assoc.peer) is assoc:
                del self._by_peer[assoc.peer]
            return
        self._rearm(assoc, now)

    # -- deadline heap plumbing --------------------------------------------------

    def _admit(self, assoc: Association) -> None:
        """Insert into ``_by_id``, stamping the installation order."""
        self._installs += 1
        assoc.install_seq = self._installs
        self._by_id[assoc.assoc_id] = assoc

    def _arm(self, assoc: Association, deadline: float | None) -> None:
        """Push a timer unless an equal-or-earlier one is already armed."""
        if deadline is None:
            return
        armed = assoc.armed_deadline
        if armed is not None and armed <= deadline:
            return
        assoc.armed_deadline = deadline
        heapq.heappush(self._timers, (deadline, assoc.assoc_id))

    def _rearm(self, assoc: Association, now: float) -> None:
        """Arm the association's next natural deadline after a service."""
        if not assoc.established:
            if assoc.initiator:
                self._arm(assoc, assoc.hs_deadline)
            return
        deadline = assoc.signer.next_deadline()
        if assoc.controller is not None:
            # Adaptive associations keep a heartbeat so the controller
            # still ticks on its decision interval while idle.
            tick = now + assoc.controller.config.decision_interval_s
            deadline = tick if deadline is None else min(deadline, tick)
        self._arm(assoc, deadline)

    def _mark_dirty(self, assoc: Association) -> None:
        """Queue the association for service on the next poll turn."""
        self._dirty.add(assoc.assoc_id)

    def _retry_budget_s(self) -> float:
        """Longest a peer still retrying an exchange can stay silent:
        every retry spent at the timeout ceiling."""
        config = self.config
        ceiling = max(config.rto_max_s, config.retransmit_timeout_s)
        return ceiling * (config.max_retries + 1)

    @property
    def busy(self) -> bool:
        """True while any association has in-flight or queued work."""
        return any(
            assoc.established and not assoc.signer.idle
            for assoc in self._by_peer.values()
        ) or any(not assoc.established for assoc in self._by_peer.values())

    # -- internals ----------------------------------------------------------------

    def _create_chains(self) -> ChainSet:
        return ChainSet.create(
            self.hash_fn, self.rng.fork("chains"), self.config.chain_length
        )

    def _install_association(
        self,
        assoc_id: int,
        peer: str,
        chains: ChainSet,
        peer_anchors: PeerAnchors,
        initiator: bool,
        now: float = 0.0,
    ) -> Association:
        assoc = self._by_id.get(assoc_id)
        if assoc is None:
            assoc = Association(
                assoc_id=assoc_id, peer=peer, initiator=initiator, chains=chains
            )
            previous = self._by_peer.get(peer)
            if previous is not None and previous.assoc_id != assoc_id:
                # Superseded by the peer's re-key; its exchanges in
                # flight on the old association still need a verifier.
                previous.retired = True
                previous.linger_until = now + self._retry_budget_s()
                self._mark_dirty(previous)
            self._by_peer[peer] = assoc
            self._admit(assoc)
        channel_config = self.config.channel_config()
        link = self.links.link(peer) if self._track_links else None
        if link is not None:
            link.on_association()
        assoc.signer = SignerSession(
            hash_fn=self.hash_fn,
            sig_chain=chains.signature,
            ack_verifier=ChainVerifier(
                self.hash_fn,
                peer_anchors.ack_anchor,
                tags=ACKNOWLEDGMENT_TAGS,
                resync_window=self.config.resync_window,
            ),
            config=channel_config,
            assoc_id=assoc_id,
            peer=peer,
            obs=self.obs,
            node=self.name,
            link=link,
        )
        # With re-keying armed, an exhausted chain parks the backlog for
        # the replacement association to migrate; with it off, exhaustion
        # must still raise out of poll() (there is no rescue coming).
        assoc.signer.defer_exhaustion = self.config.rekey_threshold > 0
        if self.paths is not None:
            # Terminal rto-escape interception: the signer consults this
            # before failing an exchange; a successful path switch lets
            # it re-present the in-flight S1s instead (it calls its own
            # represent(), so the hook only moves the route).
            assoc.signer.escape_hook = (
                lambda cause, hook_now, a=assoc:
                    self._switch_path(a, hook_now, cause)
            )
        if self.config.adaptive:
            assoc.controller = AdaptiveController(
                assoc.signer,
                config=self.config.adaptive_config,
                obs=self.obs,
                node=self.name,
                link=link,
            )
        assoc.verifier = VerifierSession(
            hash_fn=self.hash_fn,
            ack_chain=chains.acknowledgment,
            sig_verifier=ChainVerifier(
                self.hash_fn,
                peer_anchors.sig_anchor,
                resync_window=self.config.resync_window,
            ),
            assoc_id=assoc_id,
            rng=self.rng.fork(f"verifier:{peer}"),
            accept_policy=self.config.accept_policy,
            max_buffered_exchanges=self.config.max_buffered_exchanges,
            obs=self.obs,
            node=self.name,
            link=link,
        )
        assoc.established = True
        if self.obs.enabled:
            self.obs.tracer.emit(
                now, self.name, EventKind.ESTABLISHED, assoc_id,
                info=f"peer={peer}" + (" initiator" if initiator else ""),
            )
            self.obs.registry.counter("endpoint.associations").inc()
        for message in assoc.pending_sends:
            assoc.signer.submit(message)
        assoc.pending_sends.clear()
        if assoc.controller is not None:
            # Seed after the pending sends are queued, so the inherited
            # configuration's batch size sees the real backlog.
            assoc.controller.seed_from_link(now)
        self._mark_dirty(assoc)
        return assoc

    def _on_handshake(
        self, packet: HandshakePacket, src: str, out: EndpointOutput,
        now: float = 0.0,
    ) -> None:
        if packet.is_response:
            assoc = self._by_id.get(packet.assoc_id)
            if assoc is None or assoc.established or not assoc.initiator:
                return
            if assoc.peer != src:
                return
            try:
                peer_anchors = validate_handshake(
                    packet,
                    expect_protected=self.config.require_protected_handshake,
                    expected_peer_nonce=assoc.hs_nonce,
                )
            except AlphaError:
                return
            if packet.telemetry is not None and self._track_links:
                # A re-bootstrapping responder handed its link history
                # back on the HS2: the fresh association starts with the
                # fused loss view instead of re-learning it.
                self.links.link(src).on_peer_summary(packet.telemetry, now=now)
            established = self._install_association(
                packet.assoc_id, src, assoc.chains, peer_anchors,
                initiator=True, now=now,
            )
            self._migrate_if_replacement(established)
            return
        # HS1: we are the responder.
        existing = self._by_id.get(packet.assoc_id)
        if existing is not None:
            # Retransmitted HS1: repeat our HS2.
            if existing.peer == src and existing.hs_bytes:
                out.replies.append((src, existing.hs_bytes))
            return
        try:
            peer_anchors = validate_handshake(
                packet, expect_protected=self.config.require_protected_handshake
            )
        except AlphaError:
            return
        chains = self._create_chains()
        response = build_handshake(
            assoc_id=packet.assoc_id,
            chains=chains,
            hash_name=self.config.hash_name,
            rng=self.rng.fork(f"hs:{src}"),
            is_response=True,
            peer_nonce=packet.nonce,
            identity=self.identity,
        )
        assoc = self._install_association(
            packet.assoc_id, src, chains, peer_anchors, initiator=False, now=now
        )
        if self._track_links:
            # Carry our accumulated view of this link on the HS2 — only
            # when there is history to report, so a first-contact
            # handshake stays byte-identical to the pre-telemetry wire.
            link = self.links.get(src)
            if link is not None and link.has_history:
                response.telemetry = link.summary()
        assoc.hs_bytes = response.encode()
        out.replies.append((src, assoc.hs_bytes))
        if self.obs.enabled:
            self.obs.tracer.emit(
                now, self.name, EventKind.HS_SEND, packet.assoc_id, info="hs2"
            )

    def _maybe_rekey(self, assoc: Association, now: float, out: EndpointOutput) -> None:
        """Initiate a replacement handshake before the chains run dry."""
        if (
            self.config.rekey_threshold <= 0
            or not assoc.established
            or assoc.retired
            or assoc.down
            or not assoc.initiator
            or assoc.replacement_id is not None
        ):
            return
        remaining = min(
            assoc.chains.signature.remaining_exchanges,
            assoc.chains.acknowledgment.remaining_exchanges,
        )
        if remaining > self.config.rekey_threshold:
            return
        self._initiate_replacement(assoc, now, out, label="rekey")

    def _initiate_replacement(
        self, assoc: Association, now: float, out: EndpointOutput, label: str
    ) -> Association:
        """Start a fresh handshake that will supersede ``assoc``."""
        new_id = self.rng.random_int(63)
        chains = self._create_chains()
        packet = build_handshake(
            assoc_id=new_id,
            chains=chains,
            hash_name=self.config.hash_name,
            rng=self.rng.fork(f"{label}:{assoc.peer}:{new_id}"),
            is_response=False,
            identity=self.identity,
        )
        replacement = Association(
            assoc_id=new_id,
            peer=assoc.peer,
            initiator=True,
            chains=chains,
            hs_nonce=packet.nonce,
            hs_bytes=packet.encode(),
            hs_deadline=now + self.config.retransmit_timeout_s,
        )
        self._admit(replacement)
        assoc.replacement_id = new_id
        self._arm(replacement, replacement.hs_deadline)
        out.replies.append((assoc.peer, replacement.hs_bytes))
        if self.obs.enabled:
            self.obs.tracer.emit(
                now, self.name, EventKind.REKEY, assoc.assoc_id,
                info=f"{label} new_assoc={new_id}",
            )
            self.obs.tracer.emit(
                now, self.name, EventKind.HS_SEND, new_id, info="hs1"
            )
            self.obs.registry.counter("endpoint.rekeys").inc()
        return replacement

    def _migrate_if_replacement(self, assoc: Association) -> None:
        """Point the peer mapping at a freshly established replacement."""
        current = self._by_peer.get(assoc.peer)
        if current is assoc or current is None:
            return
        if current.replacement_id != assoc.assoc_id:
            return
        # Queued-but-unsent messages move to the fresh chains; in-flight
        # exchanges finish on the old association, which is then drained
        # and garbage-collected by poll().
        if current.signer is not None:
            while current.signer._queue:
                assoc.signer.submit(current.signer._queue.popleft())
        current.retired = True
        self._mark_dirty(current)
        self._mark_dirty(assoc)
        self._by_peer[assoc.peer] = assoc

    def _collect_signer_output(
        self, assoc: Association, now: float, out: EndpointOutput
    ) -> None:
        if assoc.controller is not None:
            # Re-tune before starting new exchanges so a decision made
            # this tick shapes the exchange this same poll opens.
            assoc.controller.poll(now)
        for payload in assoc.signer.poll(now):
            out.replies.append((assoc.peer, payload))
        for report in assoc.signer.drain_reports():
            out.reports.append((assoc.peer, report))
        escaped = False
        for failure in assoc.signer.drain_failures():
            out.failures.append((assoc.peer, failure))
            if failure.reason == "rto-escape":
                escaped = True
        self._check_loss_spike(assoc, now, out)
        self._check_dead_peer(assoc, now, out, force=escaped)

    def _check_loss_spike(
        self, assoc: Association, now: float, out: EndpointOutput
    ) -> None:
        """Ledger loss-spike hop-death classifier (PROTOCOL.md §13).

        A burst of timeout retransmits with zero completions since the
        last check means every packet class is vanishing on the active
        path — classify the hop dead and fail over early rather than
        waiting for the escape hatch to burn its probe budget.
        """
        if self.paths is None or assoc.retired or assoc.down:
            return
        signer = assoc.signer
        timeouts = signer.stats.retransmits_timeout
        completed = signer.exchanges_completed
        last_timeouts, last_completed = assoc.spike_marker
        if completed > last_completed:
            # Forward progress: the active path works; clear its mark.
            assoc.spike_marker = (timeouts, completed)
            self.paths.note_success(assoc.peer)
            return
        threshold = self.config.failover_spike_retransmits
        if threshold <= 0 or timeouts - last_timeouts < threshold:
            return
        assoc.spike_marker = (timeouts, completed)
        self._attempt_failover(assoc, now, out, cause="loss-spike")

    def _attempt_failover(
        self, assoc: Association, now: float, out: EndpointOutput, cause: str
    ) -> bool:
        """Switch paths and re-present in-flight S1s; False if no path."""
        if self.paths is None or assoc.retired or assoc.down:
            return False
        if not self._switch_path(assoc, now, cause):
            return False
        assoc.signer.consecutive_failures = 0
        for payload in assoc.signer.represent(now):
            out.replies.append((assoc.peer, payload))
        return True

    def _switch_path(
        self, assoc: Association, now: float, cause: str
    ) -> bool:
        """Promote the best backup path for ``assoc``'s peer."""
        paths = self.paths
        if paths is None or not paths.candidates(assoc.peer):
            return False
        old = paths.active(assoc.peer)
        new = paths.fail_over(assoc.peer)
        if new is None:
            self.stats.failovers_exhausted += 1
            if self.obs.enabled:
                self.obs.tracer.emit(
                    now, self.name, EventKind.FAILOVER_EXHAUSTED,
                    assoc.assoc_id,
                    info=f"cause={cause} spent={paths.failover_count(assoc.peer)}",
                )
                self.obs.registry.counter("resilience.failover.exhausted").inc()
            return False
        self.stats.failovers += 1
        if self.obs.enabled:
            self.obs.tracer.emit(
                now, self.name, EventKind.FAILOVER, assoc.assoc_id,
                info=f"cause={cause} from={old.path_id} to={new.path_id}",
            )
            self.obs.registry.counter("resilience.failover.switches").inc()
        if self.config.on_path_switch is not None:
            self.config.on_path_switch(assoc.peer, old, new)
        return True

    def _check_dead_peer(
        self,
        assoc: Association,
        now: float,
        out: EndpointOutput,
        force: bool = False,
    ) -> None:
        """Declare the peer dead after too many consecutive failures.

        ``force`` (a terminal rto-escape) skips the consecutive-failure
        count — the probe budget already proved the path black-holed —
        but still respects the ``dead_peer_threshold <= 0`` master
        switch.
        """
        threshold = self.config.dead_peer_threshold
        if threshold <= 0 or assoc.down or assoc.retired:
            return
        if assoc.signer.consecutive_failures < threshold and not force:
            return
        # Hop death is not peer death: with a backup path registered,
        # move the association instead of declaring the peer gone.
        if self._attempt_failover(assoc, now, out, cause="dead-peer"):
            return
        assoc.down = True
        self.stats.dead_peers += 1
        if self.obs.enabled:
            self.obs.tracer.emit(
                now, self.name, EventKind.DEAD_PEER, assoc.assoc_id,
                info=f"peer={assoc.peer}"
                f" failures={assoc.signer.consecutive_failures}",
            )
            self.obs.registry.counter("endpoint.dead_peers").inc()
        rebootstrap = self.config.auto_rebootstrap
        cause = "auto"
        if not rebootstrap and force and self._track_links:
            # Fused-split escape heuristic (PROTOCOL.md §16): the probe
            # budget proved the *path* unusable, but when both ledger
            # views agree the loss is corruption-dominated, the peer is
            # almost certainly alive behind a packet-chewing link —
            # fresh chains are worth a shot even without the blanket
            # auto_rebootstrap opt-in. Requires an actual peer report:
            # the one-sided mirror guess is not enough to spend a
            # handshake on.
            link = self.links.get(assoc.peer)
            if (
                link is not None
                and link.peer_reports
                and link.split_confident
                and link.loss_split()[1] >= _ESCAPE_CORRUPTION_BIAS
            ):
                rebootstrap = True
                cause = "escape-corruption"
        if rebootstrap and assoc.replacement_id is None:
            # Re-bootstrap over the existing handshake path: fresh chains,
            # fresh association id, queued traffic migrates immediately.
            replacement = self._initiate_replacement(assoc, now, out, label="reboot")
            self.stats.rebootstraps += 1
            if self.obs.enabled:
                self.obs.tracer.emit(
                    now, self.name, EventKind.REBOOTSTRAP, assoc.assoc_id,
                    info=f"new_assoc={replacement.assoc_id} cause={cause}",
                )
                self.obs.registry.counter("endpoint.rebootstraps").inc()
            while assoc.signer._queue:
                replacement.pending_sends.append(assoc.signer._queue.popleft())
            assoc.retired = True
            self._mark_dirty(assoc)
            if self._by_peer.get(assoc.peer) is assoc:
                self._by_peer[assoc.peer] = replacement
        else:
            # No replacement: surface queued traffic as terminally failed
            # so callers never wait on a peer that stopped answering.
            # Drain (rather than use the return value) so the failure is
            # emitted exactly once.
            assoc.signer.fail_queued("dead-peer", now)
            for failure in assoc.signer.drain_failures():
                out.failures.append((assoc.peer, failure))

    def _fail_handshake(
        self, assoc: Association, out: EndpointOutput, now: float = 0.0
    ) -> None:
        """Tear down a half-open association whose HS1 retries ran out."""
        assoc.down = True
        self.stats.exchanges_failed += 1
        self.stats.dead_peers += 1
        if self.obs.enabled:
            self.obs.tracer.emit(
                now, self.name, EventKind.EXCHANGE_FAILED, assoc.assoc_id,
                info=f"handshake-timeout retries={assoc.hs_retries}",
            )
            self.obs.tracer.emit(
                now, self.name, EventKind.DEAD_PEER, assoc.assoc_id,
                info=f"peer={assoc.peer} handshake",
            )
            self.obs.registry.counter("endpoint.dead_peers").inc()
        out.failures.append(
            (
                assoc.peer,
                ExchangeFailed(
                    peer=assoc.peer,
                    assoc_id=assoc.assoc_id,
                    seq=0,
                    retries=assoc.hs_retries,
                    reason="handshake-timeout",
                    messages=list(assoc.pending_sends),
                ),
            )
        )
        assoc.pending_sends.clear()
        del self._by_id[assoc.assoc_id]
        if self._by_peer.get(assoc.peer) is assoc:
            del self._by_peer[assoc.peer]
        parent = self._by_peer.get(assoc.peer)
        if parent is not None and parent.replacement_id == assoc.assoc_id:
            # The failed handshake was a re-key replacement: clear the
            # marker so _maybe_rekey can try again, instead of leaving
            # the association wedged on a replacement that will never
            # establish (it would otherwise ride its chains to
            # exhaustion and stall every queued message).
            parent.replacement_id = None
            self._mark_dirty(parent)

    def resilience_stats(self) -> ResilienceStats:
        """Aggregate counters: endpoint-level, drained, and live signers.

        Idempotent: builds a fresh block every call without mutating any
        source, so repeated snapshots return identical totals.
        """
        total = ResilienceStats.aggregate(
            self.stats,
            self._drained,
            *(
                assoc.signer.stats
                for assoc in self._by_id.values()
                if assoc.signer is not None
            ),
        )
        # Both halves of the storm damper live under one counter: the
        # signer's token bucket and the verifier's duplicate-nack
        # suppression both record "a nack that was not acted on".
        total.nack_suppressed += sum(
            assoc.verifier.nacks_suppressed
            for assoc in self._by_id.values()
            if assoc.verifier is not None
        )
        return total

    def max_rto_streak_peak(self) -> int:
        """Worst run of consecutive timeouts any signer spent pinned at
        ``rto_max_s``. With the escape hatch enabled this stays at or
        below ``rto_probe_after`` — the wedge-regression suite asserts
        exactly that.
        """
        return max(
            self._drained_rto_peak,
            *(
                assoc.signer.max_rto_streak_peak
                for assoc in self._by_id.values()
                if assoc.signer is not None
            ),
            0,
        )
