"""The four benchmark workloads, their correctness gate and their metrics.

Each workload builds its rig (set-up), submits a fixed number of unique
honest messages (the timed phase), then checks every delivery against
what was submitted. The run length is set by the message count, which
the caller derives from ``--seconds``: the same seed and seconds give
the same inputs, and two commits are compared on the same work.

The program is driven only through its public API: ``Network.chain``,
the netsim adapters, ``AlphaEndpoint``, ``UdpTransport`` and
``Reactor``. Packet fates are read from outside, through each relay's
``stats`` and ``drop_breakdown()`` and the sender's ``failures``.
"""

from __future__ import annotations

import hashlib
import random
import resource
import selectors
import statistics
import struct
import time

from perfbench.tracer import Tracer, summarize
from repro.core import endpoint as endpoint_mod
from repro.core import relay as relay_mod
from repro.core import signer as signer_mod
from repro.core import verifier as verifier_mod
from repro.core.adapter import EndpointAdapter, RelayAdapter
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.exceptions import ProtocolError
from repro.core.hashchain import ChainVerifier, HashChain
from repro.core.modes import Mode, ReliabilityMode
from repro.core import packets as packets_mod
from repro.core.packets import (
    A1Packet,
    A2Packet,
    HandshakePacket,
    PacketType,
    S1Packet,
    S2Packet,
)
from repro.core.relay import RelayEngine
from repro.core.signer import SignerSession
from repro.core.verifier import VerifierSession
from repro.crypto.hashes import OpCounter, get_hash
from repro.netsim import Network
from repro.netsim.link import Link, LinkConfig
from repro.netsim.packet import Frame
from repro.netsim.simulator import Simulator
from repro.transports import Reactor, UdpTransport

HOPS = 4
LINK_LATENCY_S = 0.003
HASH_SIZE = 20
#: ``setup_s`` is the median of set-ups spread over the run, because the
#: host's speed drifts over seconds and back-to-back set-ups would all
#: sample one instant; one set-up takes about 12 ms, so the median needs
#: many samples to be steady. Netsim workloads build a throwaway rig
#: after every segment of the timed phase (that time is left out of the
#: timed figures); the UDP workload, which can neither pause its open
#: loop nor open more sockets, builds ``UDP_SETUPS`` rigs before the
#: timed phase and as many after it.
NETSIM_SETUPS_BEFORE = 2
UDP_SETUPS = 20
#: The host's speed swings by up to 2x within tens of milliseconds, so
#: the netsim timed phase runs a fixed reference loop (``Reference``)
#: for ``REF_CHUNK`` iterations after every ``REF_EVERY`` simulator
#: events, and each set-up is bracketed by one such chunk. Gated times
#: are scaled to a host on which one reference iteration takes
#: ``REF_NS`` ns; the chunks' own time is left out of every figure.
REF_EVERY = 32
REF_CHUNK = 128
REF_NS = 1000.0
#: The timed phase is marked into this many runs of deliveries. The
#: marks pace the netsim set-up interludes, and their rates are printed
#: as a diagnostic; the gated figures are whole-phase ratios.
SEGMENTS = 40
#: Simulated-time cap on a timed phase: a wedged association that keeps
#: polling forever ends the run here instead of hanging it.
SIM_LIMIT_S = 3600.0
#: Wall-time cap on draining the UDP workload after its last send.
UDP_DRAIN_S = 30.0
#: Simulated-time rate of the hostile workload's forged packets. It is
#: close to that workload's delivered rate, so forgeries arrive through
#: the whole honest run rather than in a burst at its start.
FORGED_PER_SIM_S = 80.0
#: Drop categories of ``RelayEngine.drop_breakdown()``; reported as
#: ``relay.drops.<category>`` (zero when a category never fired).
DROP_CATEGORIES = ("forged", "tampered", "replayed", "reordered", "flooded",
                   "malformed", "policy")
#: Relay reasons that forward an S2: verified, and passed unverified.
S2_VERIFIED = ("s2-ok",)
S2_UNVERIFIED = ("s2-evicted-unverified", "s2-unverified", "s2-recovering")

WORKLOADS = {
    # name: (mode, message bytes, link loss, nominal delivered msg/s on
    # the host it was written on, which sizes a run to about ``--seconds``)
    "base_interlock": (Mode.BASE, 512, 0.0, 750),
    "merkle_batch": (Mode.MERKLE, 512, 0.0, 1500),
    "hostile_cumulative": (Mode.CUMULATIVE, 64, 0.05, 750),
    "udp_loopback": (Mode.CUMULATIVE, 512, 0.0, 1000),
}
#: Offered rate of the open-loop UDP workload, well below its capacity.
UDP_RATE = 1000.0


def message_count(workload: str, seconds: float) -> int:
    return max(1, round(WORKLOADS[workload][3] * seconds))


def make_payloads(seed: int, count: int, size: int) -> list[bytes]:
    """Unique messages: an 8-byte index, then seeded random filler."""
    rng = random.Random(seed)
    return [struct.pack(">Q", i) + rng.randbytes(size - 8) for i in range(count)]


def calibrate(iterations: int = 200_000) -> float:
    """ns per iteration of a fixed pure-Python loop (host speed figure)."""
    table: dict[int, int] = {}
    acc = 0
    start = time.perf_counter_ns()
    for i in range(iterations):
        acc += i * i % 7
        table[i & 1023] = acc
    return (time.perf_counter_ns() - start) / iterations


_REF_STRUCT = struct.Struct(">QI")


def reference_loop(iterations: int) -> int:
    """A fixed mix of the interpreter work the program does: struct
    codecs, byte slicing, dict traffic and short SHA-1 digests."""
    sha1, pack, unpack = hashlib.sha1, _REF_STRUCT.pack, _REF_STRUCT.unpack_from
    table: dict[int, bytes] = {}
    digest = bytes(HASH_SIZE)
    for i in range(iterations):
        frame = pack(i, len(table)) + digest
        seq, _ = unpack(frame)
        digest = sha1(frame).digest()
        table[seq & 63] = digest[:8]
    return len(table)


class Reference:
    """The host's speed, sampled in short chunks between program steps.

    Each ``run()`` times ``REF_CHUNK`` iterations of ``reference_loop``
    in wall and process CPU time. Because chunks are spread evenly
    through the program's work, a slow stretch of the host inflates the
    program's time and the chunks' time alike, and ``wall_scale`` and
    ``cpu_scale`` (reference ns per iteration on this host, over
    ``REF_NS``) cancel it out.
    """

    def __init__(self) -> None:
        self.wall_ns = self.cpu_ns = self.iterations = 0

    def run(self) -> tuple[float, float]:
        """Run one chunk; return the wall and CPU seconds it took, which
        the caller leaves out of its own figures.

        Reading the process CPU clock is a system call, and the kernel
        may preempt the process on its return if the scheduler slice has
        run out. So the wall clock sampled for the reference starts
        after that read and stops before the closing one, and the time
        returned spans both reads: a preemption the reads cause is
        charged neither to the program nor to the reference.
        """
        start = time.perf_counter_ns()
        cpu = time.process_time_ns()
        wall = time.perf_counter_ns()
        reference_loop(REF_CHUNK)
        wall = time.perf_counter_ns() - wall
        cpu = time.process_time_ns() - cpu
        self.wall_ns += wall
        self.cpu_ns += cpu
        self.iterations += REF_CHUNK
        return (time.perf_counter_ns() - start) / 1e9, cpu / 1e9

    def wall_scale(self) -> float:
        return self.wall_ns / self.iterations / REF_NS

    def cpu_scale(self) -> float:
        return self.cpu_ns / self.iterations / REF_NS


def endpoint_config(mode: Mode) -> EndpointConfig:
    return EndpointConfig(
        mode=mode,
        reliability=ReliabilityMode.RELIABLE,
        batch_size=8,
        max_outstanding=4,
        observe=False,
    )


# -- correctness gate ----------------------------------------------------------


def account(payloads: list[bytes], received, failures) -> dict:
    """Check deliveries against submissions; count every message's fate.

    ``received`` is the receiver's ``(peer, message)`` list and
    ``failures`` the sender's ``(peer, ExchangeFailed)`` list. A
    delivery that was never submitted, was altered, or came twice fails
    the gate; an undelivered message is a failed operation, reported or
    silent, never an error.
    """
    index = {payload: i for i, payload in enumerate(payloads)}
    count = len(payloads)
    seen = [0] * count
    foreign = altered = 0
    for _, message in received:
        i = index.get(message)
        if i is not None:
            seen[i] += 1
        elif len(message) == len(payloads[0]) and struct.unpack_from(">Q", message)[0] < count:
            altered += 1
        else:
            foreign += 1
    reported = {
        index[m] for _, failure in failures for m in failure.messages if m in index
    }
    delivered = sum(1 for n in seen if n == 1)
    duplicated = sum(1 for n in seen if n > 1)
    undelivered = [i for i in range(count) if seen[i] == 0]
    reported_failed = sum(1 for i in undelivered if i in reported)
    silent = len(undelivered) - reported_failed
    balanced = count == delivered + duplicated + reported_failed + silent
    return {
        "submitted": count,
        "delivered": delivered,
        "duplicated": duplicated,
        "reported_failed": reported_failed,
        "silently_missing": silent,
        "foreign": foreign,
        "altered": altered,
        "failed": count - delivered,
        "balanced": balanced,
        "correct": balanced and not (foreign or altered or duplicated),
    }


# -- netsim rigs ---------------------------------------------------------------


class NetsimRig:
    """A 4-hop chain: signer ``s``, relays ``r1..r3``, verifier ``v``."""

    def __init__(self, seed: int, mode: Mode, loss: float) -> None:
        self.net = Network.chain(
            HOPS, config=LinkConfig(latency_s=LINK_LATENCY_S, loss_rate=loss), seed=seed
        )
        cfg = endpoint_config(mode)
        self.counters = {"signer": OpCounter(), "verifier": OpCounter()}
        self.s = EndpointAdapter(
            AlphaEndpoint("s", cfg, seed=f"{seed}:s", counter=self.counters["signer"]),
            self.net.nodes["s"],
        )
        self.v = EndpointAdapter(
            AlphaEndpoint("v", cfg, seed=f"{seed}:v", counter=self.counters["verifier"]),
            self.net.nodes["v"],
        )
        self.relay_counters = [OpCounter() for _ in range(HOPS - 1)]
        self.relays = [
            RelayAdapter(
                self.net.nodes[f"r{hop}"],
                engine=RelayEngine(get_hash("sha1", counter), name=f"r{hop}", hop=hop),
            )
            for hop, counter in enumerate(self.relay_counters, 1)
        ]
        self.s.connect("v")
        sim = self.net.simulator
        while not self.s.established("v"):
            if not sim.step():
                raise RuntimeError("handshake never completed")

    def snapshot(self) -> dict:
        """Cumulative counters, to difference around the timed phase."""
        return {
            "stats": [dict(a.engine.stats) for a in self.relays],
            "drops": [a.engine.drop_breakdown() for a in self.relays],
            "frames_sent": sum(link.frames_sent for link in self.net.links),
            "frames_lost": sum(link.frames_lost for link in self.net.links),
            "events": self.net.simulator.events_processed,
            "retransmits": self.s.endpoint.resilience_stats().retransmits,
            "ops": {role: c.snapshot() for role, c in self.counters.items()},
            "relay_ops": [c.snapshot() for c in self.relay_counters],
        }

    def close(self) -> None:
        pass


class Forger:
    """An outsider at the signer's node forging S1s and S2s.

    It wiretaps the signer's outgoing frames for the live association
    id, the latest S1 sequence number and chain index, and injects
    forged packets that spoof the signer and reuse those values (the
    sequence number minus a random offset below 16, so some name
    buffered exchanges and some evicted ones). Their chain elements
    and MACs are random. ``total`` packets go out at ``rate`` per
    simulated second, alternating S1 and S2.
    """

    # Wire offsets (PROTOCOL.md; pinned by the golden corpus): every
    # packet starts magic u16 | version u8 | type u8 | assoc_id u64 |
    # seq u32; an S1 then has mode u8 | flags u8 | chain_index u32 and
    # its chain element, an S2 disclosed_index u32 and the key.
    _ASSOC_SEQ = struct.Struct(">QI")
    _U32 = struct.Struct(">I")
    _S1_INDEX, _S1_ELEMENT = 18, 22
    _S2_INDEX, _S2_ELEMENT = 16, 20

    def __init__(self, rig: NetsimRig, total: int, rate: float, seed: int) -> None:
        self.node = rig.net.nodes["s"]
        self.sim = rig.net.simulator
        self.total = total
        self.interval = 1.0 / rate
        self.rng = random.Random(f"forger:{seed}")
        self.sent = 0
        self.payloads: set[bytes] = set()
        self._last_s1: bytes | None = None
        self._send = self.node.send
        self.node.send = self._tap
        # Templates are encoded here, before the timed phase; injection
        # only stamps the sniffed fields and a fresh random element.
        rand = self.rng.randbytes
        self._s1 = S1Packet(
            assoc_id=0, seq=0, mode=Mode.CUMULATIVE, chain_index=1,
            chain_element=rand(HASH_SIZE),
            pre_signatures=[rand(HASH_SIZE) for _ in range(8)],
            message_count=8, reliable=True,
        ).encode()
        self._s2 = S2Packet(
            assoc_id=0, seq=0, disclosed_index=0,
            disclosed_element=rand(HASH_SIZE), msg_index=0, message=rand(64),
        ).encode()

    def _tap(self, frame: Frame) -> None:
        payload = frame.payload
        if len(payload) > self._S1_ELEMENT and payload[3] == PacketType.S1:
            self._last_s1 = payload
        self._send(frame)

    def start(self) -> None:
        self.sim.schedule(self.interval, self._tick)

    def _tick(self) -> None:
        sniffed = self._last_s1
        if sniffed is not None:
            assoc_id, seq = self._ASSOC_SEQ.unpack_from(sniffed, 4)
            (chain_index,) = self._U32.unpack_from(sniffed, self._S1_INDEX)
            seq = max(1, seq - self.rng.randrange(16))
            if self.sent % 2 == 0:
                packet = bytearray(self._s1)
                index_at, element_at, index = self._S1_INDEX, self._S1_ELEMENT, chain_index
            else:
                packet = bytearray(self._s2)
                index_at, element_at, index = self._S2_INDEX, self._S2_ELEMENT, chain_index - 1
            self._ASSOC_SEQ.pack_into(packet, 4, assoc_id, seq)
            self._U32.pack_into(packet, index_at, index)
            packet[element_at : element_at + HASH_SIZE] = self.rng.randbytes(HASH_SIZE)
            payload = bytes(packet)
            self.payloads.add(payload)
            self._send(Frame(source="s", destination="v", payload=payload, kind="alpha"))
        self.sent += 1
        if self.sent < self.total:
            self.sim.schedule(self.interval, self._tick)


class ForgedFates:
    """Per hop, how each relay judged the forged packets that reached it."""

    def __init__(self, relays, forged: set[bytes]) -> None:
        self.by_hop: list[dict[str, int]] = []
        for adapter in relays:
            fates: dict[str, int] = {}
            self.by_hop.append(fates)
            adapter.engine.handle = self._judge(adapter.engine.handle, fates, forged)

    @staticmethod
    def _judge(handle, fates, forged):
        def judged(data, src, dst, now):
            decision = handle(data, src, dst, now)
            if data in forged:
                key = ("forward:" if decision.forward else "drop:") + decision.reason
                fates[key] = fates.get(key, 0) + 1
            return decision

        return judged

    def forwarded(self, hop: int, reasons=None) -> int:
        return sum(
            n for key, n in self.by_hop[hop].items()
            if key.startswith("forward:") and (reasons is None or key[8:] in reasons)
        )


def drive_netsim(rig: NetsimRig, payloads, forger=None, probe=None, interlude=None,
                 reference=None) -> dict:
    """Closed loop: queue every message at t0, run until the queue drains.

    ``interlude``, if given, runs after every segment mark, and
    ``reference``, if given, runs a chunk every ``REF_EVERY`` events;
    the wall and CPU time of both are left out of every figure.
    """
    sim = rig.net.simulator
    received = rig.v.received
    every = max(1, len(payloads) // SEGMENTS)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    marks = [(wall0, cpu0, len(received))]
    sim0 = sim.now
    for payload in payloads:
        try:
            rig.s.send("v", payload)
        except ProtocolError:
            break  # association DOWN: the rest count as undelivered
    if forger is not None:
        forger.start()
    last_delivery = sim0
    seen = len(received)
    step = sim.step
    limit = sim0 + SIM_LIMIT_S
    events = 0
    paused_wall = paused_cpu = 0.0
    while step():
        if len(received) != seen:
            seen = len(received)
            last_delivery = sim.now
            if seen >= marks[-1][2] + every:
                wall, cpu = time.perf_counter(), time.process_time()
                marks.append((wall - paused_wall, cpu - paused_cpu, seen))
                if interlude is not None:
                    interlude()
                    paused_wall += time.perf_counter() - wall
                    paused_cpu += time.process_time() - cpu
        events += 1
        if probe is not None and not events & 255:
            probe()
        if reference is not None and not events % REF_EVERY:
            wall, cpu = reference.run()
            paused_wall += wall
            paused_cpu += cpu
        if sim.now > limit:
            break
    return {
        "wall_s": time.perf_counter() - wall0 - paused_wall,
        "cpu_s": time.process_time() - cpu0 - paused_cpu,
        "sim_s": last_delivery - sim0,
        "marks": marks,
    }


# -- UDP rig ---------------------------------------------------------------------


class UdpRig:
    """Two endpoints on loopback UDP sockets, driven by one reactor."""

    def __init__(self, seed: int, mode: Mode) -> None:
        cfg = endpoint_config(mode)
        self.counters = {"signer": OpCounter(), "verifier": OpCounter()}
        self.reactor = Reactor()
        try:
            self.s = self.reactor.add(UdpTransport(
                AlphaEndpoint("s", cfg, seed=f"{seed}:s", counter=self.counters["signer"])
            ))
            self.v = self.reactor.add(UdpTransport(
                AlphaEndpoint("v", cfg, seed=f"{seed}:v", counter=self.counters["verifier"])
            ))
            self.s.register_peer("v", self.v.address)
            self.v.register_peer("s", self.s.address)
            self.s.connect("v")
            if not self.reactor.run_until(self._established, timeout_s=10.0):
                raise RuntimeError("UDP handshake never completed")
        except BaseException:
            self.reactor.close()
            raise

    def _established(self) -> bool:
        try:
            return self.s.endpoint.association("v").established
        except ProtocolError:
            return False

    relays = ()

    def snapshot(self) -> dict:
        return {
            "stats": [], "drops": [], "frames_sent": 0, "frames_lost": 0,
            "events": 0, "relay_ops": [],
            "retransmits": self.s.endpoint.resilience_stats().retransmits,
            "ops": {role: c.snapshot() for role, c in self.counters.items()},
        }

    def close(self) -> None:
        self.reactor.close()


def drive_udp(rig: UdpRig, payloads, rate: float) -> dict:
    """Open loop: message ``i`` is due at ``t0 + i / rate``.

    Latency runs from each message's due time to the end of the reactor
    turn that delivered it, so a stalled turn is charged to every
    message that waited behind it.
    """
    clock = time.perf_counter
    reactor, sender, received = rig.reactor, rig.s, rig.v.received
    index = {payload: i for i, payload in enumerate(payloads)}
    count = len(payloads)
    every = max(1, count // SEGMENTS)
    latencies: list[float] = []
    late: list[float] = []
    delivered_at: set[int] = set()
    seen = 0
    nxt = 0
    cpu0 = time.process_time()
    t0 = clock()
    marks = [(t0, cpu0, 0)]
    drain_until = None
    while True:
        now = clock()
        while nxt < count and t0 + nxt / rate <= now:
            late.append(now - (t0 + nxt / rate))
            try:
                sender.send("v", payloads[nxt])
            except ProtocolError:
                pass  # association DOWN: counted as undelivered
            nxt += 1
        if nxt == count:
            if drain_until is None:
                drain_until = now + UDP_DRAIN_S
            if not sender.endpoint.busy or now > drain_until:
                break
            wait = 0.02
        else:
            wait = max(0.0, t0 + nxt / rate - now)
        reactor.run_once(wait)
        if len(received) != seen:
            done = clock()
            for _, message in received[seen:]:
                i = index.get(message)
                if i is not None and i not in delivered_at:
                    delivered_at.add(i)
                    latencies.append(done - (t0 + i / rate))
            seen = len(received)
            if seen >= marks[-1][2] + every:
                marks.append((done, time.process_time(), seen))
    return {
        "wall_s": clock() - t0,
        "cpu_s": time.process_time() - cpu0,
        "latencies": latencies,
        "late": late,
        "marks": marks,
    }


# -- tracing targets -------------------------------------------------------------


def install_tracer(tracer: Tracer) -> None:
    """Patch every layer entry point, where its callers look it up."""

    def meter(out) -> None:
        replies = out.replies
        if replies:
            tracer.bump("endpoint.packets_out", len(replies))
            tracer.bump("endpoint.bytes_out", sum(len(p) for _, p in replies))

    def meter_poll(out) -> None:
        tracer.bump("endpoint.poll.useful", bool(out.replies))
        meter(out)

    def meter_connect(hs) -> None:
        tracer.bump("endpoint.packets_out")
        tracer.bump("endpoint.bytes_out", len(hs[1]))

    wrap = tracer.wrap
    wrap(AlphaEndpoint, "on_packet", "endpoint.on_packet", meter)
    wrap(AlphaEndpoint, "poll", "endpoint.poll", meter_poll)
    wrap(AlphaEndpoint, "send", "endpoint.send")
    wrap(AlphaEndpoint, "connect", "endpoint.connect", meter_connect)
    for method in ("submit", "poll", "handle_a1", "handle_a2"):
        wrap(SignerSession, method, f"signer.{method}")
    for method in ("handle_s1", "handle_s2"):
        wrap(VerifierSession, method, f"verifier.{method}")
    wrap(RelayEngine, "handle", "relay.handle")
    for module in (packets_mod, endpoint_mod, relay_mod):
        wrap(module, "decode_packet", "packets.decode")
    for cls in (S1Packet, A1Packet, S2Packet, A2Packet, HandshakePacket):
        wrap(cls, "encode", "packets.encode")
    for method in ("verify", "verify_disclosure", "consume_derived"):
        wrap(ChainVerifier, method, "hashchain.verify")
    wrap(HashChain, "__init__", "hashchain.build")
    for module in (relay_mod, verifier_mod):
        wrap(module, "verify_merkle_path", "merkle.verify_path")
    for module in (relay_mod, signer_mod):
        wrap(module, "verify_ack_opening", "merkle.ack_open")
    wrap(Simulator, "step", "netsim.step")
    wrap(Link, "transmit", "netsim.transmit")
    wrap(Reactor, "run_once", "reactor.turn",
         lambda n: tracer.bump("udp.datagrams_in_turns", n))
    wrap(selectors.DefaultSelector, "select", "io.select")
    for method in ("service_socket", "service_timers", "send"):
        wrap(UdpTransport, method, f"udp.{method}")


def _collect_sessions():
    """Record every signer/verifier session built (for per-layer totals)."""
    made: dict[type, list] = {SignerSession: [], VerifierSession: []}
    originals = {}
    for cls, bucket in made.items():
        original = originals[cls] = cls.__init__

        def init(self, *args, _original=original, _bucket=bucket, **kwargs):
            _original(self, *args, **kwargs)
            _bucket.append(self)

        cls.__init__ = init

    def restore() -> None:
        for cls, original in originals.items():
            cls.__init__ = original

    return made, restore


# -- the run ---------------------------------------------------------------------


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.seed = seed
        self.mode, _, self.loss, _ = WORKLOADS[workload]
        self.udp = workload == "udp_loopback"
        self.hostile = workload == "hostile_cumulative"

    def build(self):
        if self.udp:
            return UdpRig(self.seed, self.mode)
        return NetsimRig(self.seed, self.mode, self.loss)

    def attackers(self, rig, payloads) -> tuple:
        """The hostile workload's forger and forged-fate recorder, if any."""
        if not self.hostile:
            return None, None
        forger = Forger(rig, len(payloads), FORGED_PER_SIM_S, self.seed)
        return forger, ForgedFates(rig.relays, forger.payloads)

    def phase(self, rig, payloads, attackers=(None, None), probe=None,
              interlude=None, reference=None) -> dict:
        """One timed phase on a fresh rig; returns timings and fates."""
        before = rig.snapshot()
        if self.udp:
            out = drive_udp(rig, payloads, UDP_RATE)
        else:
            out = drive_netsim(rig, payloads, attackers[0], probe, interlude, reference)
        out["accounting"] = account(payloads, rig.v.received, rig.s.failures)
        out["before"], out["after"] = before, rig.snapshot()
        out["forged"] = attackers
        return out

    def timed_build(self, times: list[float], raw: list[float]):
        """Build a rig; append its set-up time to ``raw``, and to ``times``
        scaled by the reference chunks run just before and after it."""
        reference = Reference()
        reference.run()
        start = time.perf_counter()
        rig = self.build()
        elapsed = time.perf_counter() - start
        reference.run()
        raw.append(elapsed)
        times.append(elapsed / reference.wall_scale())
        return rig

    def end_to_end(self, payloads) -> tuple[dict, dict]:
        """Untraced run: set-up median and the timed phase's metrics.

        Netsim times are scaled to the reference host (``Reference``).
        The UDP open loop is paced by the real clock, so its times are
        left as measured.
        """
        times: list[float] = []
        raw: list[float] = []
        for _ in range((UDP_SETUPS if self.udp else NETSIM_SETUPS_BEFORE) - 1):
            self.timed_build(times, raw).close()
        rig = self.timed_build(times, raw)
        interlude = None if self.udp else (lambda: self.timed_build(times, raw).close())
        reference = None if self.udp else Reference()
        try:
            out = self.phase(rig, payloads, self.attackers(rig, payloads),
                             interlude=interlude, reference=reference)
        finally:
            rig.close()
        if self.udp:
            for _ in range(UDP_SETUPS):
                self.timed_build(times, raw).close()
        out["setup_times"], out["raw_setup_times"] = times, raw
        out["host_ref"] = reference
        wall_s, cpu_s = out["wall_s"], out["cpu_s"]
        if reference is not None:
            wall_s /= reference.wall_scale()
            cpu_s /= reference.cpu_scale()
        delivered = out["accounting"]["delivered"]
        metrics = {
            "setup_s": (statistics.median(times), "s"),
            "msgs_per_s": (delivered / wall_s, "msg/s"),
            "cpu_us_per_msg": (cpu_s / max(delivered, 1) * 1e6, "us"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics.update(self.shares(out))
        return metrics, out

    def shares(self, out) -> dict:
        """Workload-level figures; 0 where the workload has no such figure.

        The S2 shares count honest packets only: forged S2s a relay
        forwarded are subtracted per hop and per reason.
        """
        acc = out["accounting"]
        latencies = out.get("latencies", [])
        figures = {
            "failed_share": (acc["failed"] / acc["submitted"], "ratio"),
            "sim_msgs_per_s": (
                acc["delivered"] / out["sim_s"] if out.get("sim_s") else 0.0, "msg/s"),
            "wall_latency_p50_ms": (_quantile(latencies, 0.5) * 1e3, "ms"),
            "wall_latency_p99_ms": (_quantile(latencies, 0.99) * 1e3, "ms"),
        }
        forger, fates = out["forged"]
        verified = unverified = 0
        for hop, (old, new) in enumerate(zip(out["before"]["stats"], out["after"]["stats"])):
            verified += sum(new.get(r, 0) - old.get(r, 0) for r in S2_VERIFIED)
            unverified += sum(new.get(r, 0) - old.get(r, 0) for r in S2_UNVERIFIED)
            if fates is not None:
                verified -= fates.forwarded(hop, S2_VERIFIED)
                unverified -= fates.forwarded(hop, S2_UNVERIFIED)
        total = verified + unverified
        figures["unverified_forward_share"] = (unverified / total if total else 0.0, "ratio")
        figures["forged_past_first_relay_share"] = (
            fates.forwarded(0) / forger.sent if forger is not None and forger.sent else 0.0,
            "ratio")
        return figures

    def traced(self, payloads) -> tuple[dict, dict]:
        """Untraced reference phase, then the same phase traced."""
        rig = self.build()
        try:
            reference = self.phase(rig, payloads, self.attackers(rig, payloads))
        finally:
            rig.close()
        del rig
        tracer = Tracer()
        sessions, restore_sessions = _collect_sessions()
        install_tracer(tracer)
        try:
            root = tracer.open("bench.setup")
            rig = self.build()
            tracer.close(root)
            setup_end = len(tracer)
            peak = [0]

            def probe() -> None:
                peak[0] = max(peak[0], sum(a.engine.buffered_bytes for a in rig.relays))

            attackers = self.attackers(rig, payloads)
            tracer.counts.clear()  # count the timed phase only
            timed = tracer.open("bench.timed")
            try:
                out = self.phase(rig, payloads, attackers, None if self.udp else probe)
            finally:
                tracer.close(timed)
                rig.close()
        finally:
            tracer.restore()
            restore_sessions()
        setup_table = summarize(*tracer.spans(0, setup_end))
        table = summarize(*tracer.spans(timed))
        out["reference"] = reference
        out["tracer"], out["timed_root"] = tracer, timed
        out["table"] = table
        metrics = self.per_layer(out, table, setup_table, tracer, sessions, peak[0])
        metrics.update(self.shares(out))
        return metrics, out

    def per_layer(self, out, table, setup_table, tracer, sessions, peak) -> dict:
        acc = out["accounting"]
        msgs = max(acc["delivered"], 1)
        counts = tracer.counts

        def row(name):
            return table.get(name, {"calls": 0, "spans": 0, "total_ns": 0, "self_ns": 0})

        def group(prefix, field):
            return sum(r[field] for n, r in table.items() if n.startswith(prefix))

        def per_call(name):
            r = row(name)
            return r["self_ns"] / r["calls"] if r["calls"] else 0.0

        wall_ns = row("bench.timed")["total_ns"]
        untraced = row("bench.timed")["self_ns"]
        m = {
            "hashchain.verify.calls": (row("hashchain.verify")["calls"], "count"),
            "hashchain.verify.ns_per_call": (per_call("hashchain.verify"), "ns"),
            "hashchain.build.ns": (
                setup_table.get("hashchain.build", {"total_ns": 0})["total_ns"], "ns"),
            "packets.decode.calls": (row("packets.decode")["calls"], "count"),
            "packets.decode.ns_per_call": (per_call("packets.decode"), "ns"),
            "packets.encode.calls": (row("packets.encode")["calls"], "count"),
            "packets.encode.ns_per_call": (per_call("packets.encode"), "ns"),
            "packets.per_msg": (counts.get("endpoint.packets_out", 0) / msgs, "count"),
            "packets.bytes_per_msg": (counts.get("endpoint.bytes_out", 0) / msgs, "B"),
            "merkle.verify_path.calls": (row("merkle.verify_path")["calls"], "count"),
            "merkle.verify_path.ns_per_call": (per_call("merkle.verify_path"), "ns"),
            "merkle.ack_open.calls": (row("merkle.ack_open")["calls"], "count"),
            "signer.calls": (group("signer.", "calls"), "count"),
            "signer.self_ns": (group("signer.", "self_ns"), "ns"),
            "signer.exchanges_per_msg": (sum(
                s.exchanges_completed + s.exchanges_failed
                for s in sessions[SignerSession]) / msgs, "count"),
            "verifier.calls": (group("verifier.", "calls"), "count"),
            "verifier.self_ns": (group("verifier.", "self_ns"), "ns"),
            "verifier.rejects": (sum(
                v.rejected_s1 + v.rejected_s2 for v in sessions[VerifierSession]), "count"),
            "endpoint.on_packet.self_ns": (row("endpoint.on_packet")["self_ns"], "ns"),
            "endpoint.poll.calls": (row("endpoint.poll")["calls"], "count"),
            "endpoint.poll.self_ns": (row("endpoint.poll")["self_ns"], "ns"),
            "endpoint.poll.useful_share": (
                counts.get("endpoint.poll.useful", 0) / row("endpoint.poll")["calls"]
                if row("endpoint.poll")["calls"] else 0.0, "ratio"),
            "netsim.step.self_ns": (row("netsim.step")["self_ns"], "ns"),
            "netsim.transmit.self_ns": (row("netsim.transmit")["self_ns"], "ns"),
            "reactor.turns": (row("reactor.turn")["calls"], "count"),
            "udp.datagrams_per_turn": (
                counts.get("udp.datagrams_in_turns", 0) / row("reactor.turn")["calls"]
                if row("reactor.turn")["calls"] else 0.0, "count"),
            "udp.service_socket.self_ns": (row("udp.service_socket")["self_ns"], "ns"),
            "udp.service_timers.calls": (row("udp.service_timers")["calls"], "count"),
            "trace.untraced_share": (untraced / wall_ns if wall_ns else 0.0, "ratio"),
            "trace.overhead_share": (
                1.0 - out["reference"]["cpu_s"] / out["cpu_s"] if out["cpu_s"] else 0.0,
                "ratio"),
            "bench.silent_losses": (acc["silently_missing"], "count"),
        }
        # Reactor busy time: turn time not spent blocked in select().
        names, name_ids, parents, starts, ends = tracer.spans(out["timed_root"])
        turn_id = names.index("reactor.turn")
        select_id = names.index("io.select")
        blocked = sum(
            ends[i] - starts[i] for i, nid in enumerate(name_ids)
            if nid == select_id and parents[i] >= 0 and name_ids[parents[i]] == turn_id
        )
        m["reactor.busy_share"] = (
            (row("reactor.turn")["total_ns"] - blocked) / wall_ns if wall_ns else 0.0, "ratio")
        m["bench.generator_late_p99_ms"] = (
            _quantile(out.get("late", []), 0.99) * 1e3, "ms")
        m.update(self._fate_metrics(out, msgs, row, peak))
        return m

    def _fate_metrics(self, out, msgs, row, peak) -> dict:
        before, after = out["before"], out["after"]
        m = {}
        for role in ("signer", "verifier"):
            d = after["ops"][role].diff(before["ops"][role])
            m[f"crypto.hash_ops_per_msg.{role}"] = (d.hash_ops / msgs, "count")
            m[f"crypto.mac_ops_per_msg.{role}"] = (d.mac_ops / msgs, "count")
        # Per relay (the mean over the path's relays), as in Table 1.
        diffs = [a.diff(b) for a, b in zip(after["relay_ops"], before["relay_ops"])]
        relays = max(len(diffs), 1)
        m["crypto.hash_ops_per_msg.relay"] = (
            sum(d.hash_ops for d in diffs) / relays / msgs, "count")
        m["crypto.mac_ops_per_msg.relay"] = (
            sum(d.mac_ops for d in diffs) / relays / msgs, "count")
        drops = dict.fromkeys(DROP_CATEGORIES, 0)
        for old, new in zip(before["drops"], after["drops"]):
            for cat in drops:
                drops[cat] += new.get(cat, 0) - old.get(cat, 0)
        for cat, n in drops.items():
            m[f"relay.drops.{cat}"] = (n, "count")
        m["relay.unverified_forwards"] = (sum(
            n - old.get(k, 0)
            for old, new in zip(before["stats"], after["stats"])
            for k, n in new.items()
            if k.endswith("-unverified") or k in S2_UNVERIFIED), "count")
        handle = row("relay.handle")
        m["relay.packets"] = (handle["calls"], "count")
        m["relay.self_ns_per_packet"] = (
            handle["self_ns"] / handle["calls"] if handle["calls"] else 0.0, "ns")
        m["relay.peak_buffered_bytes"] = (peak, "B")
        for key in ("retransmits", "events", "frames_sent", "frames_lost"):
            name = "signer.retransmits" if key == "retransmits" else f"netsim.{key}"
            m[name] = (after[key] - before[key], "count")
        return m
