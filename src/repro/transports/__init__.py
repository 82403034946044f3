"""Transports: running ALPHA endpoints outside the simulator.

The protocol engines are sans-IO, so any byte carrier works, and every
carrier wakes its endpoints by one rule: ``on_packet`` per received
packet, ``poll`` at ``next_deadline()`` (PROTOCOL.md §15.1).

- :mod:`repro.transports.memory` — a synchronous in-memory pipe with
  optional scripted loss, handy for tests and for embedding endpoints
  in one process.
- :mod:`repro.transports.udp` — a UDP socket bound to one endpoint
  (demonstrated over loopback in the test suite). This is what a
  deployment on actual wireless interfaces would start from.
- :mod:`repro.transports.reactor` — the one real-socket event loop:
  many UDP transports on a single ``selectors`` loop.
"""

from repro.transports.memory import MemoryNetwork
from repro.transports.reactor import Reactor
from repro.transports.udp import UdpTransport

__all__ = ["MemoryNetwork", "Reactor", "UdpTransport"]
