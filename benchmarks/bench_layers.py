"""Layer microbenches: the fixed cost one packet pays at each hop.

Every hop of an ALPHA path decodes every packet, and the netsim layer
schedules, steps and transmits every frame. These cases time those
fixed costs in isolation, on the host CPU:

* decode and encode of S1/A1/S2/A2, in BASE and MERKLE shape;
* one ``Simulator`` schedule-and-step round trip, 64 events deep;
* one ``Link.transmit``.

Timed with pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_layers.py --benchmark-only

or, for a plain ns-per-call table::

    PYTHONPATH=src python -m benchmarks.bench_layers

``smoke()`` runs each case once and checks the round trips; it has no
timing gate.
"""

from __future__ import annotations

import itertools
import timeit

import pytest

from repro.core.modes import Mode
from repro.core.packets import (
    A1Packet,
    A2Packet,
    AckVerdict,
    S1Packet,
    S2Packet,
    decode_packet,
)
from repro.netsim.link import Link, LinkConfig
from repro.netsim.node import Node
from repro.netsim.packet import Frame
from repro.netsim.simulator import Simulator

HASH_SIZE = 20
MESSAGE_SIZE = 512
#: Merkle shape: 8 messages per S1, so an 8-leaf tree (3 siblings per
#: block) and a 16-leaf acknowledgment tree (4 siblings per opening).
BATCH = 8
#: Pending events kept in the simulator's queue by the step case.
HEAP_DEPTH = 64


def _h(tag: int) -> bytes:
    return bytes([tag]) * HASH_SIZE


def _packets(mode: Mode) -> dict[str, object]:
    """One packet of each data type, shaped as ``mode`` sends it."""
    merkle = mode is Mode.MERKLE
    return {
        "S1": S1Packet(
            assoc_id=0xBE7C, seq=7, mode=mode, chain_index=41,
            chain_element=_h(1), pre_signatures=[_h(2)],
            message_count=BATCH if merkle else 1, reliable=True,
        ),
        "A1": A1Packet(
            assoc_id=0xBE7C, seq=7, ack_index=33, ack_element=_h(3),
            echo_sig_index=41, echo_sig_element=_h(1),
            pre_acks=[] if merkle else [_h(4)],
            pre_nacks=[] if merkle else [_h(5)],
            amt_root=_h(6) if merkle else None,
        ),
        "S2": S2Packet(
            assoc_id=0xBE7C, seq=7, disclosed_index=40,
            disclosed_element=_h(7), msg_index=0,
            message=b"m" * MESSAGE_SIZE,
            auth_path=[_h(8)] * 3 if merkle else [],
        ),
        "A2": A2Packet(
            assoc_id=0xBE7C, seq=7, disclosed_index=32,
            disclosed_element=_h(9),
            verdicts=[
                AckVerdict(
                    msg_index=0, is_ack=True, secret=_h(10),
                    path=[_h(11)] * 4 if merkle else [],
                )
            ],
        ),
    }


SHAPES = {"base": _packets(Mode.BASE), "merkle": _packets(Mode.MERKLE)}
CASES = [(shape, kind) for shape in SHAPES for kind in ("S1", "A1", "S2", "A2")]


def codec_cases(shape: str, kind: str):
    """The (decode, encode) callables for one packet shape."""
    packet = SHAPES[shape][kind]
    wire = packet.encode()
    return (lambda: decode_packet(wire, HASH_SIZE)), packet.encode


def _noop() -> None:
    pass


def step_case():
    """One schedule-and-step round trip against a standing queue.

    ``HEAP_DEPTH`` events stay pending, at scattered times, so each push
    and pop pays the heap's comparisons as a busy simulation does.
    """
    sim = Simulator()
    delays = [(i * 37 % HEAP_DEPTH) * 1e-4 for i in range(HEAP_DEPTH)]
    for delay in delays:
        sim.schedule(delay, _noop)
    cycle = itertools.cycle(delays)

    def round_trip() -> bool:
        sim.schedule(next(cycle), _noop)
        return sim.step()

    return round_trip


def transmit_case():
    """One ``Link.transmit`` of a 512 B frame over a lossless, jitter-free
    link (the perfbench shape); the arrival is discarded.

    The scheduled arrival is cleared from the queue after each call so
    the heap stays one entry deep and only the transmit is timed.
    """
    sim = Simulator()
    a, b = Node(sim, "a"), Node(sim, "b")
    link = Link(sim, a, b, LinkConfig(latency_s=0.003))
    frame = Frame(source="a", destination="b", payload=b"p" * MESSAGE_SIZE)
    queue = sim._queue

    def transmit() -> int:
        link.transmit(frame, a)
        queued = len(queue)
        queue.clear()
        return queued

    return transmit, link


@pytest.mark.parametrize("shape,kind", CASES)
def test_decode(benchmark, shape, kind):
    decode, _ = codec_cases(shape, kind)
    assert benchmark(decode) == SHAPES[shape][kind]


@pytest.mark.parametrize("shape,kind", CASES)
def test_encode(benchmark, shape, kind):
    _, encode = codec_cases(shape, kind)
    assert decode_packet(benchmark(encode), HASH_SIZE) == SHAPES[shape][kind]


def test_simulator_step(benchmark):
    assert benchmark(step_case()) is True


def test_link_transmit(benchmark):
    transmit, _ = transmit_case()
    assert benchmark(transmit) == 1


def smoke():
    """Tier-1 smoke: every case runs once and round-trips."""
    for shape, kind in CASES:
        decode, encode = codec_cases(shape, kind)
        assert decode() == SHAPES[shape][kind]
        assert decode_packet(encode(), HASH_SIZE) == SHAPES[shape][kind]
    assert step_case()() is True
    transmit, link = transmit_case()
    assert transmit() == 1
    assert link.frames_sent == 1


def main(number: int = 20_000, repeat: int = 7) -> None:
    """Print the best-of-``repeat`` ns per call of every case."""
    rows = []
    for shape, kind in CASES:
        decode, encode = codec_cases(shape, kind)
        rows.append((f"decode {kind} {shape}", decode))
        rows.append((f"encode {kind} {shape}", encode))
    rows.append(("simulator schedule+step", step_case()))
    rows.append(("link transmit", transmit_case()[0]))
    for label, case in rows:
        best = min(timeit.repeat(case, number=number, repeat=repeat))
        print(f"{label:26s} {best / number * 1e9:8.0f} ns")


if __name__ == "__main__":
    main()
