"""Reactor: many UDP transports on one selectors loop (PROTOCOL.md §15)."""

import pytest

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.transports import Reactor, UdpTransport


def make_transport(name, seed, config=None):
    config = config or EndpointConfig(chain_length=256)
    return UdpTransport(AlphaEndpoint(name, config, seed=seed))


class TestReactor:
    def test_handshake_between_two_reactor_transports(self):
        with Reactor() as reactor:
            ta = reactor.add(make_transport("a", 1))
            tb = reactor.add(make_transport("b", 2))
            ta.register_peer("b", tb.address)
            tb.register_peer("a", ta.address)
            ta.connect("b")
            assert reactor.run_until(
                lambda: ta.endpoint.association("b").established
                and tb.endpoint.association("a").established
            )

    def test_star_fan_in_one_loop(self):
        # One hub, several spokes, all multiplexed on one selector: the
        # shape a relay or server process actually runs.
        with Reactor() as reactor:
            hub = reactor.add(make_transport("hub", 10))
            spokes = []
            for i in range(5):
                spoke = reactor.add(make_transport(f"s{i}", 20 + i))
                spoke.register_peer("hub", hub.address)
                hub.register_peer(f"s{i}", spoke.address)
                spokes.append(spoke)
            for spoke in spokes:
                spoke.connect("hub")
            assert reactor.run_until(
                lambda: all(
                    s.endpoint.association("hub").established for s in spokes
                )
            )
            for i, spoke in enumerate(spokes):
                spoke.send("hub", b"from-%d" % i)
            assert reactor.run_until(lambda: len(hub.received) == 5)
            assert sorted(m for _, m in hub.received) == sorted(
                b"from-%d" % i for i in range(5)
            )

    def test_select_timeout_tracks_earliest_deadline(self):
        with Reactor() as reactor:
            ta = reactor.add(make_transport("a", 3))
            assert reactor.next_deadline() is None
            tb = reactor.add(
                make_transport(
                    "b", 4, EndpointConfig(
                        chain_length=64, retransmit_timeout_s=0.5
                    ),
                )
            )
            tb.register_peer("a", ta.address)
            # connect() arms b's HS1 retransmit timer; the reactor's
            # horizon is that deadline, not its default wait.
            tb.connect("a")
            deadline = reactor.next_deadline()
            assert deadline is not None
            assert deadline == tb.next_deadline()

    def test_double_add_rejected_and_remove_detaches(self):
        with Reactor() as reactor:
            ta = reactor.add(make_transport("a", 5))
            with pytest.raises(ValueError):
                reactor.add(ta)
            reactor.remove(ta)
            assert reactor.transports == ()
            # A removed transport stays open: another reactor drives it.
            with Reactor() as other:
                other.add(ta)
                assert other.run_once(0.0) == 0

    def test_closed_reactor_refuses_turns(self):
        reactor = Reactor()
        ta = reactor.add(make_transport("a", 6))
        reactor.close()
        assert ta.closed
        with pytest.raises(RuntimeError):
            reactor.run_once()

    def test_flooded_transport_does_not_block_siblings(self):
        import socket

        with Reactor() as reactor:
            victim = reactor.add(
                UdpTransport(
                    AlphaEndpoint("victim", EndpointConfig(chain_length=64),
                                  seed=7),
                    max_datagrams_per_turn=8,
                )
            )
            ta = reactor.add(make_transport("a", 8))
            tb = reactor.add(make_transport("b", 9))
            ta.register_peer("b", tb.address)
            tb.register_peer("a", ta.address)
            flooder = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            ta.connect("b")

            def flood_and_check():
                for _ in range(32):
                    flooder.sendto(b"noise", victim.address)
                return ta.endpoint.association("b").established

            assert reactor.run_until(flood_and_check)
            assert victim.stats.unknown_source_drops > 0
            flooder.close()
