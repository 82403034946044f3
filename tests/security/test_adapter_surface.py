"""Byte-exact pin of every baseline adapter's surface.

The separation grid pins *outcomes*; this module pins the adapter
surface underneath them, so a refactor of ``repro.baselines.base`` can
prove it changed no wire byte, DRBG draw, verdict or reason string. For
every scheme at 2, 3 and 5 hops a fixed message train is protected,
walked hop by hop through ``relay_judge`` (like
:class:`~repro.baselines.BaselineChain`), flushed, then followed by a
tampered copy, a replay and a forgery. Everything observable is folded
into one SHA-256 per (scheme, hops):

- ``protect`` bytes with their ``message_region`` / ``tag_regions``
  (a tag-corrupted duplicate of the last packet follows the train);
- each hop's ``relay_judge`` verdict, reason and rewritten bytes;
- ``insider_judge`` at hop 1 (on a twin adapter, since it moves state);
- ``flush_packets`` output and ``forge`` bytes from a fixed DRBG;
- accepted, authenticated and retraction outcomes;
- ``drain_rounds`` / ``drain_spacing`` and the sender ``OpCounter``.

Receiver exceptions are swallowed here, so the pin does not depend on
*where* malformed input is counted (``receiver_rejects`` is not part
of it); ``test_malformed_input_is_counted_once`` pins that instead.
"""

import hashlib
from dataclasses import astuple

import pytest

from repro.baselines import BaselineChain, feature_matrix, scheme_adapters
from repro.crypto.drbg import DRBG
from repro.netsim.packet import Frame

HOPS = (2, 3, 5)
MESSAGES = [b"surface-%02d" % i for i in range(9)]
SPACING = 0.1

#: (scheme, hops) -> first 16 hex digits of the surface digest.
EXPECTED = {
    ("CSM", 2): "2daa81d249c5e923",
    ("CSM", 3): "52fb6fceb7d8eb9a",
    ("CSM", 5): "73adeeb7444c7b67",
    ("GUY-FAWKES", 2): "8762b698913b7a79",
    ("GUY-FAWKES", 3): "902750a5716992ed",
    ("GUY-FAWKES", 5): "c38b632b637ec0e0",
    ("HMAC-E2E", 2): "3b79381b3faf9323",
    ("HMAC-E2E", 3): "59e5090bea4ca23d",
    ("HMAC-E2E", 5): "b4beae4e6e89bb96",
    ("LHAP", 2): "124a01e5c08a32ae",
    ("LHAP", 3): "a2289fe0a863a87a",
    ("LHAP", 5): "3483f1e7591db2cd",
    ("PK-SIGN", 2): "bf821644f741163c",
    ("PK-SIGN", 3): "7e6287dfb9481597",
    ("PK-SIGN", 5): "338ecf29b2ef34fc",
    ("PROMAC", 2): "1984bb812b2f2783",
    ("PROMAC", 3): "6651ca6816fc502d",
    ("PROMAC", 5): "b3bb0ab7eefe4a2e",
    ("TESLA", 2): "0137b41cffa88386",
    ("TESLA", 3): "5608964024680092",
    ("TESLA", 5): "fc528bfdff22022f",
}

EXPECTED_MATRIX = "29c3a327316cfee9"


def _regions(adapter, payload):
    return adapter.message_region(payload), adapter.tag_regions(payload)


def _walk(adapter, payload, now, log):
    """Deliver ``payload`` from hop 1 to the receiver, logging verdicts."""
    queue = [(payload, 1)]
    while queue:
        data, hop = queue.pop(0)
        if hop >= adapter.hops:
            try:
                adapter.receive(data, now)
            except Exception:
                pass  # counted by BaselineChain, not by the adapter
            continue
        forward, outs, reason = adapter.relay_judge(data, hop, now)
        log.append((hop, forward, outs, reason))
        if forward:
            queue.extend((out, hop + 1) for out in (outs or [data]))


def _flip_message(adapter, payload):
    span = adapter.message_region(payload)
    if span is None:
        return payload
    out = bytearray(payload)
    out[span[1] - 1] ^= 0xFF
    return bytes(out)


def _flip_tags(adapter, payload):
    out = bytearray(payload)
    for _, end in adapter.tag_regions(payload):
        out[end - 1] ^= 0xFF
    return bytes(out)


def _surface(scheme, hops):
    cls = scheme_adapters()[scheme]
    adapter = cls(seed=3, hops=hops)
    log = [adapter.name, adapter.drain_rounds, adapter.drain_spacing]
    sent = []
    now = 0.0
    for message in MESSAGES:
        now += SPACING
        payload = adapter.protect(message, now)
        sent.append(payload)
        log.append(("protect", payload, _regions(adapter, payload)))
        _walk(adapter, payload, now, log)
    _walk(adapter, _flip_tags(adapter, sent[-1]), now, log)
    for _ in range(adapter.drain_rounds):
        now += adapter.drain_spacing
        for packet in adapter.flush_packets(now):
            log.append(("flush", packet, _regions(adapter, packet)))
            _walk(adapter, packet, now, log)
    counter = adapter.counter
    log.append(
        (
            "sender-ops",
            counter.hash_ops,
            counter.hash_bytes,
            counter.mac_ops,
            counter.mac_bytes,
            counter.pk_signs,
            counter.pk_verifies,
            sorted(counter.labels.items()),
        )
    )
    now += SPACING
    _walk(adapter, _flip_message(adapter, sent[1]), now, log)
    _walk(adapter, sent[2], now, log)
    forged = adapter.forge(DRBG(3, personalization=b"surface-attacker"), now)
    log.append(("forge", forged, _regions(adapter, forged)))
    _walk(adapter, forged, now, log)
    log.append(
        (
            "outcome",
            adapter.accepted_messages(),
            adapter.authenticated_messages(),
            adapter.retractions(),
        )
    )

    twin = cls(seed=3, hops=hops)
    now = 0.0
    for message in MESSAGES:
        now += SPACING
        payload = twin.protect(message, now)
        log.append(("insider", twin.insider_judge(payload, 1, now)))
    return hashlib.sha256(repr(log).encode()).hexdigest()[:16]


@pytest.mark.parametrize("hops", HOPS)
@pytest.mark.parametrize("scheme", sorted(scheme_adapters()))
def test_adapter_surface_is_pinned(scheme, hops):
    assert _surface(scheme, hops) == EXPECTED[(scheme, hops)]


def test_feature_matrix_is_pinned():
    rows = [astuple(row) for row in feature_matrix()]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    assert digest == EXPECTED_MATRIX


@pytest.mark.parametrize("garbage", [b"", b"\x00\x01\x02", b"\x00" * 5])
@pytest.mark.parametrize("scheme", sorted(scheme_adapters()))
def test_malformed_input_is_counted_once(scheme, garbage):
    """Garbage at the receiver counts as exactly one rejection, whether
    the receiver rejects it or raises into the chain harness."""
    adapter = scheme_adapters()[scheme](seed=3, hops=3)
    chain = BaselineChain(adapter, seed=3)
    chain.receiver.app_handler(
        Frame(source="s", destination="v", payload=garbage, kind=chain.KIND)
    )
    assert adapter.receiver_rejects() + chain.receiver_errors == 1
