"""Differential property test: incremental relay accounting vs a full scan.

A relay channel keeps a running ``buffered_bytes`` and skips its TTL
scan while a stored lower bound on the oldest timestamp proves nothing
can have expired (PROTOCOL.md §14.5). Both are claimed to be pure
bookkeeping optimisations. The reference world here is the per-packet
full scan they replaced: every prune walks every exchange and every
recovering record, and every read of ``buffered_bytes`` re-sums the
buffers. It lives only in this test, as a subclass swapped onto the
reference relay's channels.

One signer/verifier pair drives randomized traffic — pipelined
exchanges, retransmissions, replayed and forged frames, loss, time
jumps past the TTL, tight buffer caps, and a crash-journal
snapshot/restore halfway through. Every frame is judged by both
relays, which must agree on every decision, every eviction and every
resilience counter, while the real relay's running byte counter must
equal the re-summed buffers after every packet.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core.exceptions import AlphaError
from repro.core.hashchain import ACKNOWLEDGMENT_TAGS, ChainVerifier, HashChain
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import A1Packet, A2Packet, S1Packet, S2Packet, decode_packet
from repro.core.relay import RelayConfig, RelayEngine, _ChannelObserver
from repro.core.signer import ChannelConfig, SignerSession
from repro.core.verifier import VerifierSession
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import OpCounter, get_hash

H = 20
ASSOC = 91


def resum(exchange) -> int:
    """An exchange's buffered bytes, recomputed from its buffers."""
    return (
        sum(len(sig) for sig in exchange.pre_signatures)
        + sum(len(h) for h in exchange.pre_acks + exchange.pre_nacks)
        + (len(exchange.amt_root) if exchange.amt_root else 0)
    )


class FullScanChannel(_ChannelObserver):
    """The reference: a TTL scan on every packet and re-summed bytes."""

    @property
    def buffered_bytes(self) -> int:
        return sum(resum(exchange) for exchange in self.exchanges.values())

    @buffered_bytes.setter
    def buffered_bytes(self, value: int) -> None:
        pass  # the running counter is what the real relay is tested on

    def prune(self, now: float) -> None:
        ttl = self.config.exchange_ttl_s
        if ttl is not None:
            for seq in [
                seq
                for seq, exchange in self.exchanges.items()
                if now - exchange.last_seen > ttl
            ]:
                self._evict(seq, now, "ttl")
                self.resilience.evictions_ttl += 1
            for seq in [
                seq
                for seq, record in self.recovering.items()
                if now - record["restored_at"] > ttl
            ]:
                del self.recovering[seq]
                self._remember_tombstone(seq)
        self._enforce_byte_cap(now)


def channels(relay):
    for assoc in relay._associations.values():
        yield assoc.forward_channel
        yield assoc.reverse_channel


def as_reference(relay):
    for channel in channels(relay):
        channel.__class__ = FullScanChannel


def channel_state(channel):
    return (
        list(channel.exchanges),
        list(channel.evicted),
        sorted(channel.recovering),
        channel.s1_allowance,
        channel.buffered_bytes,
    )


class World:
    """A signer and a verifier, and the real and reference relays."""

    def __init__(self, channel_config, relay_config):
        sha1 = get_hash("sha1", OpCounter())
        rng = DRBG(b"relay-accounting-differential")
        sig_chain = HashChain(sha1, rng.random_bytes(H), 256)
        ack_chain = HashChain(sha1, rng.random_bytes(H), 256, tags=ACKNOWLEDGMENT_TAGS)
        self.signer = SignerSession(
            sha1,
            sig_chain,
            ChainVerifier(sha1, ack_chain.anchor, tags=ACKNOWLEDGMENT_TAGS),
            channel_config,
            ASSOC,
        )
        self.verifier = VerifierSession(
            sha1, ack_chain, ChainVerifier(sha1, sig_chain.anchor), ASSOC, rng.fork("v")
        )
        self.relay_config = relay_config
        self.relays = []
        for _ in range(2):
            relay = RelayEngine(get_hash("sha1"), relay_config)
            relay.provision(
                assoc_id=ASSOC,
                initiator="s",
                responder="v",
                initiator_sig_anchor=sig_chain.anchor,
                initiator_ack_anchor=ack_chain.anchor,
                responder_sig_anchor=sig_chain.anchor,
                responder_ack_anchor=ack_chain.anchor,
            )
            self.relays.append(relay)
        as_reference(self.relays[1])
        self.now = 0.0
        self.pool: list[tuple[str, bytes]] = []  # (sender, frame) in flight
        self.history: list[tuple[str, bytes]] = []  # every genuine frame

    def emit(self, sender, frames):
        for frame in frames:
            self.pool.append((sender, frame))
            self.history.append((sender, frame))

    def judge(self, sender, frame):
        """Both relays judge one frame; returns whether it was forwarded."""
        dest = "v" if sender == "s" else "s"
        real, ref = (
            relay.handle(frame, sender, dest, self.now) for relay in self.relays
        )
        assert (real.forward, real.reason, real.verified) == (
            ref.forward, ref.reason, ref.verified,
        )
        for channel in channels(self.relays[0]):
            assert channel.buffered_bytes == sum(
                resum(exchange) for exchange in channel.exchanges.values()
            )
        assert [channel_state(c) for c in channels(self.relays[0])] == [
            channel_state(c) for c in channels(self.relays[1])
        ]
        assert self.relays[0].resilience == self.relays[1].resilience
        assert self.relays[0].stats == self.relays[1].stats
        assert self.relays[0].buffered_bytes == self.relays[1].buffered_bytes
        return real.forward

    def deliver(self, sender, frame):
        """Hand a forwarded frame to its endpoint; queue the replies."""
        try:
            packet = decode_packet(frame, H)
            if isinstance(packet, S1Packet):
                reply = self.verifier.handle_s1(packet, self.now)
                self.emit("v", [reply] if reply is not None else [])
            elif isinstance(packet, S2Packet):
                reply = self.verifier.handle_s2(packet, self.now)
                self.emit("v", [reply] if reply is not None else [])
            elif isinstance(packet, A1Packet):
                self.emit("s", self.signer.handle_a1(packet, self.now))
            elif isinstance(packet, A2Packet):
                self.emit("s", self.signer.handle_a2(packet, self.now))
        except AlphaError:
            pass  # a replayed frame the endpoint refuses
        self.verifier.drain_delivered()

    def crash_and_restore(self):
        journals = [relay.snapshot() for relay in self.relays]
        assert journals[0] == journals[1]
        self.relays = [
            RelayEngine.restore(
                get_hash("sha1"), journal, self.relay_config, now=self.now
            )
            for journal in journals
        ]
        as_reference(self.relays[1])

    def step(self, op, arg):
        if op == "send":
            for i in range(1 + arg % 4):
                self.signer.submit(b"m%d-%d" % (arg, i))
        if op in ("send", "poll"):
            try:
                self.emit("s", self.signer.poll(self.now))
            except AlphaError:
                pass  # chain exhausted
        elif op in ("deliver", "lose") and self.pool:
            sender, frame = self.pool.pop(arg % len(self.pool))
            if self.judge(sender, frame) and op == "deliver":
                self.deliver(sender, frame)
        elif op == "flush":  # one round trip: everything in flight, in order
            in_flight, self.pool = self.pool, []
            for sender, frame in in_flight:
                if self.judge(sender, frame):
                    self.deliver(sender, frame)
        elif op == "replay" and self.history:
            self.pool.append(self.history[arg % len(self.history)])
        elif op == "forge" and self.history:
            sender, frame = self.history[arg % len(self.history)]
            forged = bytearray(frame)
            forged[(arg // 7) % len(forged)] ^= 1 + arg % 255
            self.judge(sender, bytes(forged[: len(forged) - arg % 3]))
        elif op == "advance":
            # Steps short of the TTL spread the buffered exchanges'
            # ages, so some expire while younger ones stay.
            ttl = self.relay_config.exchange_ttl_s or 10.0
            self.now += ttl * (0.01, 0.3, 0.6)[arg % 3]
        elif op == "jump":
            ttl = self.relay_config.exchange_ttl_s or 10.0
            self.now += ttl * (1.05, 1.5, 3.0)[arg % 3]


operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["send", "send", "poll", "deliver", "deliver", "flush", "flush",
             "lose", "replay", "forge", "advance", "advance", "jump"]
        ),
        st.integers(min_value=0, max_value=9999),
    ),
    min_size=20,
    max_size=120,
)


#: Staggered expiry: exchanges seen 0.3 TTL apart, so a scan evicts
#: the oldest and keeps younger ones, and the next scan is due when the
#: oldest survivor, not the youngest, crosses the TTL.
STAGGERED = [("send", 0), ("flush", 0), ("advance", 1)] * 6 + [
    ("send", 0), ("flush", 0),
]


@settings(max_examples=150, deadline=None)
@example(
    mode=(Mode.BASE, 1), reliable=False, max_outstanding=8, ttl=30.0,
    max_bytes=None, max_exchanges=8, restore=False, ops=STAGGERED,
)
@given(
    mode=st.sampled_from([(Mode.BASE, 1), (Mode.CUMULATIVE, 3), (Mode.MERKLE, 4)]),
    reliable=st.booleans(),
    max_outstanding=st.sampled_from([1, 3, 8]),
    ttl=st.sampled_from([None, 2.0, 30.0]),
    max_bytes=st.sampled_from([None, 40, 64, 200, 1000]),
    max_exchanges=st.sampled_from([1, 2, 8, 8]),
    restore=st.booleans(),
    ops=operations,
)
def test_incremental_accounting_matches_full_scan(
    mode, reliable, max_outstanding, ttl, max_bytes, max_exchanges, restore, ops
):
    channel_config = ChannelConfig(
        mode=mode[0],
        batch_size=mode[1],
        reliability=(
            ReliabilityMode.RELIABLE if reliable else ReliabilityMode.UNRELIABLE
        ),
        max_outstanding=max_outstanding,
        retransmit_timeout_s=0.5,
    )
    relay_config = RelayConfig(
        exchange_ttl_s=ttl,
        max_buffered_bytes=max_bytes,
        max_buffered_exchanges=max_exchanges,
    )
    world = World(channel_config, relay_config)
    for i, (op, arg) in enumerate(ops):
        if restore and i == len(ops) // 2:
            world.crash_and_restore()
        world.step(op, arg)
