"""Point-to-point links with latency, jitter, loss, and bandwidth.

Models a single-hop wireless link abstractly: a frame experiences a
serialization delay (size / bandwidth) during which the sender's side of
the link is busy, then a propagation delay (latency plus uniform jitter),
and is lost with a fixed probability. This is deliberately simpler than
a CSMA/CA model; DESIGN.md records the substitution — the protocol
behaviour ALPHA's evaluation depends on (RTT, loss, reordering via
jitter, per-hop forwarding cost) is all expressed here.

Beyond independent per-frame loss, a link can run a two-state
Gilbert–Elliott channel (good/bad states with per-state loss rates and
per-frame transition probabilities), duplicate frames, and corrupt
payload bits in transit — the failure modes progressive-authentication
schemes are most sensitive to (burst loss breaks fixed retransmission
timers; duplication and corruption probe replay and MAC handling).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.drbg import DRBG
from repro.netsim.packet import Frame
from repro.netsim.simulator import Simulator
from repro.obs import OBS_OFF, EventKind, Observability


@dataclass(frozen=True)
class LinkConfig:
    """Parameters of one link direction.

    latency_s:
        One-way propagation delay in seconds.
    jitter_s:
        Maximum extra delay; each frame draws uniformly from [0, jitter].
    loss_rate:
        Probability that a frame is dropped in transit (the good-state
        loss rate when the Gilbert–Elliott model is enabled).
    bandwidth_bps:
        Serialization rate in bits per second; ``None`` means infinite
        (no queueing delay).
    ge_p_bad / ge_p_good / ge_loss_bad:
        Gilbert–Elliott burst-loss model. Each transmitted frame first
        advances a per-direction two-state Markov chain: from the good
        state the link enters the bad state with probability
        ``ge_p_bad``; from the bad state it recovers with probability
        ``ge_p_good``. Frames sent in the bad state are lost with
        probability ``ge_loss_bad`` (good-state frames use
        ``loss_rate``). ``ge_p_bad == 0`` disables the model and
        reproduces the independent-loss behaviour exactly.
    duplicate_rate:
        Probability that a delivered frame arrives twice (the copy takes
        an independent jitter draw, so duplicates typically reorder).
    corrupt_rate:
        Probability that a delivered frame arrives with one payload bit
        flipped — the frame still occupies the medium and reaches the
        receiver, but its protocol bytes are damaged.
    """

    latency_s: float = 0.005
    jitter_s: float = 0.0
    loss_rate: float = 0.0
    bandwidth_bps: float | None = 54_000_000.0
    ge_p_bad: float = 0.0
    ge_p_good: float = 0.1
    ge_loss_bad: float = 0.8
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.jitter_s < 0:
            raise ValueError("latency and jitter must be non-negative")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.bandwidth_bps is not None and self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= self.ge_p_bad < 1.0:
            raise ValueError("ge_p_bad must be in [0, 1)")
        if not 0.0 < self.ge_p_good <= 1.0:
            raise ValueError("ge_p_good must be in (0, 1]")
        if not 0.0 <= self.ge_loss_bad <= 1.0:
            raise ValueError("ge_loss_bad must be in [0, 1]")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError("duplicate_rate must be in [0, 1]")
        if not 0.0 <= self.corrupt_rate <= 1.0:
            raise ValueError("corrupt_rate must be in [0, 1]")


# Preset profiles roughly matching the paper's three scenario classes.
WLAN_LINK = LinkConfig(latency_s=0.002, jitter_s=0.001, bandwidth_bps=54_000_000.0)
MESH_LINK = LinkConfig(latency_s=0.004, jitter_s=0.002, bandwidth_bps=20_000_000.0)
SENSOR_LINK = LinkConfig(latency_s=0.010, jitter_s=0.005, bandwidth_bps=250_000.0)
#: A hostile mesh link: bursty loss, occasional duplication/corruption.
HOSTILE_LINK = LinkConfig(
    latency_s=0.004,
    jitter_s=0.002,
    bandwidth_bps=20_000_000.0,
    ge_p_bad=0.1,
    ge_p_good=0.3,
    ge_loss_bad=0.8,
    duplicate_rate=0.02,
    corrupt_rate=0.01,
)


class Link:
    """A duplex link between two nodes.

    Each direction has its own busy-until bookkeeping (FIFO serialization
    queue) and Gilbert–Elliott state, and draws loss/jitter from a
    link-local DRBG, so simulations stay deterministic under topology
    changes elsewhere.
    """

    def __init__(
        self,
        simulator: Simulator,
        node_a: "Node",
        node_b: "Node",
        config: LinkConfig = LinkConfig(),
        rng: DRBG | None = None,
        obs: Observability | None = None,
    ) -> None:
        from repro.netsim.node import Node  # circular-import guard

        if not isinstance(node_a, Node) or not isinstance(node_b, Node):
            raise TypeError("links connect Node instances")
        if node_a is node_b:
            raise ValueError("cannot link a node to itself")
        self.simulator = simulator
        self.config = config
        self._obs = obs if obs is not None else OBS_OFF
        self._obs_node = f"link:{node_a.name}|{node_b.name}"
        self.endpoints = (node_a, node_b)
        self._peer = {node_a: node_b, node_b: node_a}
        self.rng = rng if rng is not None else DRBG(f"link:{node_a.name}|{node_b.name}")
        self._busy_until = {node_a.name: 0.0, node_b.name: 0.0}
        # Gilbert–Elliott channel state per direction; True means "bad".
        self._burst_bad = {node_a.name: False, node_b.name: False}
        self.frames_sent = 0
        self.frames_lost = 0
        self.frames_lost_burst = 0
        self.frames_duplicated = 0
        self.frames_corrupted = 0
        self.bytes_sent = 0
        #: Administratively up; a failed link silently drops every frame
        #: (radio gone — no error signal, as on a real wireless link).
        self.up = True
        node_a.attach_link(self)
        node_b.attach_link(self)

    def other(self, node: "Node") -> "Node":
        """The peer of ``node`` on this link."""
        peer = self._peer.get(node)
        if peer is None:
            raise ValueError(f"{node.name} is not an endpoint of this link")
        return peer

    def transmit(self, frame: Frame, sender: "Node") -> None:
        """Send ``frame`` from ``sender`` towards the other endpoint."""
        receiver = self._peer.get(sender)
        if receiver is None:
            raise ValueError(f"{sender.name} is not an endpoint of this link")
        if not self.up:
            self.frames_lost += 1
            if self._obs.enabled:
                self._obs.tracer.emit(
                    self.simulator.now, self._obs_node, EventKind.LINK_LOSS,
                    info=f"down {sender.name}->{receiver.name}",
                )
                self._obs.registry.counter("link.frames_lost").inc()
            return
        name = sender.name
        config = self.config
        size = frame.size
        self.frames_sent += 1
        self.bytes_sent += size

        bandwidth = config.bandwidth_bps
        serialization = size * 8 / bandwidth if bandwidth is not None else 0.0
        now, busy = self.simulator.now, self._busy_until[name]
        done_sending = (busy if busy > now else now) + serialization
        self._busy_until[name] = done_sending

        if self._draw_loss(name):
            if self._obs.enabled:
                burst = self._burst_bad[name]
                self._obs.tracer.emit(
                    self.simulator.now, self._obs_node, EventKind.LINK_LOSS,
                    info=f"{'burst' if burst else 'random'}"
                    f" {sender.name}->{receiver.name}",
                )
                self._obs.registry.counter("link.frames_lost").inc()
            return

        if config.corrupt_rate and self.rng.uniform() < config.corrupt_rate:
            frame = self._corrupt(frame)
            if self._obs.enabled:
                self._obs.tracer.emit(
                    self.simulator.now, self._obs_node, EventKind.LINK_CORRUPT,
                    info=f"{sender.name}->{receiver.name}",
                )
                self._obs.registry.counter("link.frames_corrupted").inc()

        self._schedule_arrival(frame, receiver, done_sending)
        if config.duplicate_rate and self.rng.uniform() < config.duplicate_rate:
            self.frames_duplicated += 1
            if self._obs.enabled:
                self._obs.tracer.emit(
                    self.simulator.now, self._obs_node, EventKind.LINK_DUP,
                    info=f"{sender.name}->{receiver.name}",
                )
                self._obs.registry.counter("link.frames_duplicated").inc()
            self._schedule_arrival(frame.copy(), receiver, done_sending)

    # -- internals -------------------------------------------------------------

    def _draw_loss(self, sender_name: str) -> bool:
        """Advance the channel state and decide whether the frame dies."""
        cfg = self.config
        if cfg.ge_p_bad:
            bad = self._burst_bad[sender_name]
            if bad:
                if self.rng.uniform() < cfg.ge_p_good:
                    bad = False
            elif self.rng.uniform() < cfg.ge_p_bad:
                bad = True
            self._burst_bad[sender_name] = bad
            loss = cfg.ge_loss_bad if bad else cfg.loss_rate
            if loss and self.rng.uniform() < loss:
                self.frames_lost += 1
                if bad:
                    self.frames_lost_burst += 1
                return True
            return False
        if cfg.loss_rate and self.rng.uniform() < cfg.loss_rate:
            self.frames_lost += 1
            return True
        return False

    def _corrupt(self, frame: Frame) -> Frame:
        """Return a copy of ``frame`` with one payload bit flipped."""
        damaged = frame.copy()
        if damaged.payload:
            bit = self.rng.random_below(len(damaged.payload) * 8)
            payload = bytearray(damaged.payload)
            payload[bit // 8] ^= 1 << (bit % 8)
            damaged.payload = bytes(payload)
        damaged.metadata["corrupted"] = True
        self.frames_corrupted += 1
        return damaged

    def _schedule_arrival(self, frame: Frame, receiver: "Node", done_sending: float) -> None:
        delay = self.config.latency_s
        if self.config.jitter_s:
            delay += self.rng.uniform(0.0, self.config.jitter_s)
        arrival = done_sending + delay
        self.simulator.schedule_at(arrival, receiver.receive, frame, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        a, b = self.endpoints
        return f"Link({a.name}<->{b.name})"
