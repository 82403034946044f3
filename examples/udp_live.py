#!/usr/bin/env python3
"""ALPHA over real UDP sockets (loopback).

The same sans-IO engines that run under the simulator drive actual
datagrams here: two endpoints on 127.0.0.1, a protected handshake,
reliable ALPHA-C delivery with end-to-end delivery confirmations, and a
mid-session "locator update" where one endpoint moves to a new socket
without disturbing the association — the HIP mobility story on a real
transport. One reactor drives both sockets.

    python examples/udp_live.py
"""

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.crypto.drbg import DRBG
from repro.crypto.signatures import EcdsaScheme
from repro.transports import Reactor, UdpTransport


def main() -> None:
    config = EndpointConfig(
        mode=Mode.CUMULATIVE,
        batch_size=4,
        reliability=ReliabilityMode.RELIABLE,
        chain_length=1024,
        retransmit_timeout_s=0.1,
        require_protected_handshake=True,
    )
    # Protected bootstrap: anchors signed with ECDSA P-256 identities.
    id_a = EcdsaScheme.generate(DRBG(b"identity-a"))
    id_b = EcdsaScheme.generate(DRBG(b"identity-b"))
    reactor = Reactor()
    alice = reactor.add(
        UdpTransport(AlphaEndpoint("alice", config, seed=1, identity=id_a))
    )
    bob = reactor.add(
        UdpTransport(AlphaEndpoint("bob", config, seed=2, identity=id_b))
    )
    alice.register_peer("bob", bob.address)
    bob.register_peer("alice", alice.address)
    print(f"alice on {alice.address}, bob on {bob.address}")

    alice.connect("bob")
    ok = reactor.run_until(lambda: alice.endpoint.association("bob").established)
    print(f"protected handshake (ECDSA-signed anchors): established={ok}")

    for i in range(8):
        alice.send("bob", f"udp-message-{i}".encode())
    reactor.run_until(lambda: len(alice.reports) == 8)
    confirmed = sum(1 for _, r in alice.reports if r.delivered)
    print(f"bob received {len(bob.received)} messages; "
          f"alice has {confirmed}/8 signed delivery confirmations")

    # Bob "moves" to a new address; only the transport directory changes.
    reactor.remove(bob)
    bob.close()
    bob_new = reactor.add(UdpTransport(bob.endpoint))
    bob_new.register_peer("alice", alice.address)
    alice.register_peer("bob", bob_new.address)
    print(f"bob moved to {bob_new.address} (same association, same chains)")
    alice.send("bob", b"message after mobility event")
    reactor.run_until(lambda: len(bob_new.received) >= 1)
    print(f"delivered after move: {[m for _, m in bob_new.received]}")

    reactor.close()


if __name__ == "__main__":
    main()
