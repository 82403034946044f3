"""Transports: in-memory pipe and UDP over loopback."""

import socket

import pytest

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.core.relay import RelayEngine
from repro.crypto.hashes import get_hash
from repro.transports import MemoryNetwork, Reactor, UdpTransport


class TestMemoryNetwork:
    def make(self, config=None, **net_kwargs):
        config = config or EndpointConfig(chain_length=256)
        net = MemoryNetwork(**net_kwargs)
        net.add_endpoint(AlphaEndpoint("a", config, seed=1))
        net.add_endpoint(AlphaEndpoint("b", config, seed=2))
        return net

    def test_connect_and_send(self):
        net = self.make()
        net.connect("a", "b")
        assert net._ports["a"].endpoint.association("b").established
        net.send("a", "b", b"hello")
        assert net.received_by("b") == [b"hello"]

    def test_duplex(self):
        net = self.make()
        net.connect("a", "b")
        net.send("a", "b", b"ping")
        net.send("b", "a", b"pong")
        assert net.received_by("b") == [b"ping"]
        assert net.received_by("a") == [b"pong"]

    def test_relays_on_path(self):
        net = self.make()
        relay = RelayEngine(get_hash("sha1"))
        net.add_relays("a", "b", [relay])
        net.connect("a", "b")
        net.send("a", "b", b"watched")
        assert net.received_by("b") == [b"watched"]
        assert relay.stats.get("s2-ok", 0) == 1

    def test_scripted_loss_recovered_by_timers(self):
        dropped = {"count": 0}

        def drop_first_s1(src, dst, payload):
            # Drop the first two data-plane packets outright.
            if src == "a" and dropped["count"] < 2 and len(payload) > 100:
                dropped["count"] += 1
                return True
            return False

        config = EndpointConfig(
            chain_length=256,
            reliability=ReliabilityMode.RELIABLE,
            retransmit_timeout_s=0.2,
        )
        net = self.make(config=config, drop_filter=drop_first_s1)
        net.connect("a", "b")
        net.send("a", "b", b"x" * 200)
        # Retransmission timers fire as the clock advances.
        for _ in range(10):
            net.advance(0.3)
        assert net.received_by("b") == [b"x" * 200]

    def test_duplicate_endpoint_rejected(self):
        net = self.make()
        with pytest.raises(ValueError):
            net.add_endpoint(AlphaEndpoint("a", seed=9))

    def test_time_monotonic(self):
        net = self.make()
        with pytest.raises(ValueError):
            net.advance(-1.0)


def make_pair(config=None):
    """Two loopback transports, each knowing the other, on one reactor."""
    config = config or EndpointConfig(chain_length=256)
    reactor = Reactor()
    ta = reactor.add(UdpTransport(AlphaEndpoint("a", config, seed=11)))
    tb = reactor.add(UdpTransport(AlphaEndpoint("b", config, seed=12)))
    ta.register_peer("b", tb.address)
    tb.register_peer("a", ta.address)
    return reactor, ta, tb


def establish(reactor, ta, tb):
    ta.connect("b")
    return reactor.run_until(
        lambda: ta.endpoint.association("b").established
        and tb.endpoint.association("a").established
    )


class TestUdpTransport:
    def test_handshake_over_loopback(self):
        reactor, ta, tb = make_pair()
        with reactor:
            assert establish(reactor, ta, tb)

    def test_protected_messages_over_loopback(self):
        reactor, ta, tb = make_pair()
        with reactor:
            assert establish(reactor, ta, tb)
            for i in range(5):
                ta.send("b", b"datagram-%d" % i)
            assert reactor.run_until(lambda: len(tb.received) == 5)
            assert sorted(m for _, m in tb.received) == sorted(
                b"datagram-%d" % i for i in range(5)
            )

    def test_reliable_mode_over_loopback(self):
        config = EndpointConfig(
            chain_length=256,
            mode=Mode.CUMULATIVE,
            batch_size=3,
            reliability=ReliabilityMode.RELIABLE,
            retransmit_timeout_s=0.1,
        )
        reactor, ta, tb = make_pair(config)
        with reactor:
            assert establish(reactor, ta, tb)
            for i in range(3):
                ta.send("b", b"tracked-%d" % i)
            assert reactor.run_until(lambda: len(ta.reports) == 3)
            assert all(report.delivered for _, report in ta.reports)

    def test_send_only_queues(self):
        # The reactor is the only loop: a send touches no socket until
        # the next turn wakes the endpoint at its (now due) deadline.
        reactor, ta, tb = make_pair()
        with reactor:
            assert establish(reactor, ta, tb)
            ta.send("b", b"queued")
            assert ta.endpoint.next_deadline() == 0.0
            assert tb.received == []
            assert reactor.run_until(lambda: len(tb.received) == 1)

    def test_unknown_sender_ignored(self):
        reactor, ta, _tb = make_pair()
        with reactor:
            stranger = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            stranger.sendto(b"junk from nowhere", ta.address)
            reactor.run_once(0.1)
            assert ta.received == []
            stranger.close()

    def test_locator_update_rebinds_peer(self):
        # The HIP story: the peer moves; the directory is updated and
        # traffic continues on the same association.
        reactor, ta, tb = make_pair()
        with reactor:
            assert establish(reactor, ta, tb)
            # b "moves": new socket, same endpoint state.
            reactor.remove(tb)
            tb.close()
            tc = reactor.add(UdpTransport(tb.endpoint))
            tc.register_peer("a", ta.address)
            ta.register_peer("b", tc.address)
            ta.send("b", b"after the move")
            assert reactor.run_until(lambda: len(tc.received) == 1)
            assert tc.received[0][1] == b"after the move"

    def test_closed_transport_refuses_pump(self):
        reactor, ta, _tb = make_pair()
        reactor.close()
        with pytest.raises(RuntimeError):
            ta.service_socket()
        with pytest.raises(RuntimeError):
            ta.service_timers()

    def test_unregistered_peer_connect_fails(self):
        ta = UdpTransport(AlphaEndpoint("solo", seed=5))
        try:
            with pytest.raises(LookupError):
                ta.connect("ghost")
        finally:
            ta.close()


class TestMemoryNetworkRelayDrops:
    def test_dropped_by_relay_counter(self):
        from repro.core.relay import RelayConfig

        net = MemoryNetwork()
        net.add_endpoint(AlphaEndpoint("a", EndpointConfig(chain_length=128), seed=1))
        net.add_endpoint(AlphaEndpoint("b", EndpointConfig(chain_length=128), seed=2))
        # A strict relay that never learned this association's anchors
        # (it was not present for the handshake) blocks everything.
        blind = RelayEngine(get_hash("sha1"), RelayConfig(forward_unknown=False))
        net.connect("a", "b")
        net.add_relays("a", "b", [blind])  # installed after the handshake
        net.send("a", "b", b"blocked")
        assert net.received_by("b") == []
        assert net.dropped_by_relay > 0

    def test_relay_installed_before_handshake_verifies(self):
        net = MemoryNetwork()
        net.add_endpoint(AlphaEndpoint("a", EndpointConfig(chain_length=128), seed=3))
        net.add_endpoint(AlphaEndpoint("b", EndpointConfig(chain_length=128), seed=4))
        relay = RelayEngine(get_hash("sha1"))
        net.add_relays("a", "b", [relay])
        net.connect("a", "b")
        net.send("a", "b", b"fine")
        assert net.received_by("b") == [b"fine"]
        assert net.dropped_by_relay == 0


class TestUdpMalformedDatagrams:
    def test_garbage_from_known_peer_does_not_kill_the_pump(self):
        reactor, ta, tb = make_pair()
        with reactor:
            assert establish(reactor, ta, tb)
            # Garbage from the *registered* peer address reaches the
            # engine (unknown senders are filtered earlier).
            for junk in (b"", b"\x00", b"\xff" * 200, b"A" * 65_000):
                tb._socket.sendto(junk, ta.address)
            reactor.run_once(0.2)
            # The transport is still alive and real traffic still flows.
            ta.send("b", b"after-the-noise")
            assert reactor.run_until(lambda: len(tb.received) == 1)
            assert tb.received == [("a", b"after-the-noise")]

    def test_parser_escape_is_counted_not_fatal(self):
        # The endpoint swallows clean PacketErrors itself; the
        # transport's guard exists for anything that escapes deeper in
        # the stack.
        reactor, ta, tb = make_pair()
        with reactor:
            assert establish(reactor, ta, tb)
            real_on_packet = ta.endpoint.on_packet
            ta.endpoint.on_packet = lambda *a, **kw: (_ for _ in ()).throw(
                RuntimeError("parse bug")
            )
            tb._socket.sendto(b"trigger", ta.address)
            reactor.run_once(0.2)
            assert ta.stats.malformed_drops == 1
            assert not ta.closed
            ta.endpoint.on_packet = real_on_packet
            # Counter surfaces through the merged stats view too.
            assert ta.resilience_stats().malformed_drops == 1
            ta.send("b", b"recovered")
            assert reactor.run_until(lambda: len(tb.received) == 1)


class TestUdpDropAccounting:
    """The silent-loss fixes: every dropped datagram is countable."""

    def test_unknown_source_drop_is_counted(self):
        reactor, ta, _tb = make_pair()
        with reactor:
            stranger = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            for _ in range(3):
                stranger.sendto(b"junk from nowhere", ta.address)
            reactor.run_until(lambda: ta.stats.unknown_source_drops == 3,
                              timeout_s=2.0)
            assert ta.stats.unknown_source_drops == 3
            assert ta.resilience_stats().unknown_source_drops == 3
            assert ta.received == []
            stranger.close()

    def test_unroutable_transmit_surfaces_counter_and_failure(self):
        reactor, ta, tb = make_pair()
        with reactor:
            assert establish(reactor, ta, tb)
            # The peer's address vanishes (directory wiped before a
            # locator update lands): sends must not black-hole silently.
            ta._peer_addresses.pop("b")
            ta.send("b", b"into the void")
            reactor.run_once(0.05)
            assert ta.stats.unroutable_drops >= 1
            peer, failure = ta.failures[-1]
            assert peer == "b"
            assert failure.reason == "no-peer-address"
            assert failure.messages  # the undeliverable payload rides along


class TestUdpFloodBudget:
    """A datagram flood must not starve the endpoint's timers."""

    def test_per_turn_budget_bounds_the_drain(self):
        with Reactor() as reactor:
            victim = reactor.add(UdpTransport(
                AlphaEndpoint("victim", EndpointConfig(chain_length=64), seed=31),
                max_datagrams_per_turn=16,
            ))
            flooder = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            for _ in range(200):
                flooder.sendto(b"flood", victim.address)
            # One turn reads at most the budget, even with 200 queued.
            assert reactor.run_until(
                lambda: victim.stats.unknown_source_drops > 0, timeout_s=2.0
            )
            assert victim.stats.unknown_source_drops <= 16
            # Subsequent turns drain the rest; nothing is lost, only
            # deferred to later turns.
            reactor.run_until(
                lambda: victim.stats.unknown_source_drops == 200,
                timeout_s=5.0,
            )
            assert victim.stats.unknown_source_drops == 200
            flooder.close()

    def test_flooded_socket_does_not_starve_retransmit_timers(self):
        config = EndpointConfig(
            chain_length=64, retransmit_timeout_s=0.05, max_retries=3
        )
        with Reactor() as reactor:
            ta = reactor.add(UdpTransport(
                AlphaEndpoint("a", config, seed=33), max_datagrams_per_turn=8
            ))
            # Handshake toward a peer that never answers, while a
            # stranger floods the socket: HS1 retries must still burn
            # down and fail terminally (timer work kept its share of
            # every turn).
            sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sink.bind(("127.0.0.1", 0))
            ta.register_peer("b", sink.getsockname())
            ta.connect("b")
            flooder = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

            def flood_and_check():
                for _ in range(32):
                    flooder.sendto(b"noise", ta.address)
                return any(
                    f.reason == "handshake-timeout" for _p, f in ta.failures
                )

            assert reactor.run_until(flood_and_check, timeout_s=5.0)
            assert ta.stats.unknown_source_drops > 0
            flooder.close()
            sink.close()

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            UdpTransport(AlphaEndpoint("x", seed=1), max_datagrams_per_turn=0)
