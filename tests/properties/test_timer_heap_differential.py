"""Differential property test: deadline heap vs a full scan.

The deadline heap (PROTOCOL.md §15) claims to be a pure scheduling
optimisation: ``poll(now)`` must emit the same packets, deliveries, and
failures as servicing *every* association every turn. The full scan
lives here, as the test's reference world: its turn calls
``_service_association`` on each association in installation order and
ignores the heap and the dirty set entirely.

Two worlds run the same randomized schedule — sends, time advances,
deliveries, drops — on identically-seeded endpoint pairs. Only the
*ordering* across associations inside one poll turn may differ, so
outputs are compared as sorted lists.
"""

from hypothesis import given, settings, strategies as st

from repro.core.endpoint import AlphaEndpoint, EndpointConfig, EndpointOutput
from repro.core.modes import ReliabilityMode


def make_world(full_scan: bool, seed: int, config_kwargs: dict):
    config = EndpointConfig(**config_kwargs)
    a = AlphaEndpoint("a", config, seed=seed)
    b = AlphaEndpoint("b", config, seed=seed + 1)
    return {"a": a, "b": b, "outbox": [], "delivered": [], "failures": [],
            "full_scan": full_scan}


def scan_poll(endpoint, now):
    """The reference turn: service every association, due or not."""
    out = EndpointOutput()
    for assoc in list(endpoint._by_id.values()):
        endpoint._service_association(assoc, now, out)
    return out


def poll_world(world, now):
    """Poll both endpoints; return this turn's sorted observable output."""
    replies = []
    for name in ("a", "b"):
        if world["full_scan"]:
            out = scan_poll(world[name], now)
        else:
            out = world[name].poll(now)
        for dest, data in out.replies:
            replies.append((name, dest, data))
        world["delivered"].extend(
            (name, peer, m.message) for peer, m in out.delivered
        )
        world["failures"].extend(
            (name, peer, f.reason) for peer, f in out.failures
        )
    world["outbox"].extend(replies)
    world["outbox"].sort()
    return sorted(replies)


def transfer(world, index, now, drop):
    """Deliver (or drop) outbox packet ``index`` — same slot each world."""
    if not world["outbox"]:
        return
    sender, dest, data = world["outbox"].pop(index % len(world["outbox"]))
    if drop:
        return
    out = world[dest].on_packet(data, world[sender].name, now)
    for d2, p2 in out.replies:
        world["outbox"].append((dest, d2, p2))
    world["outbox"].sort()
    world["delivered"].extend(
        (dest, peer, m.message) for peer, m in out.delivered
    )
    world["failures"].extend((dest, peer, f.reason) for peer, f in out.failures)


schedule = st.lists(
    st.tuples(
        st.sampled_from(["advance", "send", "deliver", "drop"]),
        st.integers(min_value=0, max_value=999),
    ),
    min_size=10,
    max_size=120,
)


class TestDeadlineHeapDifferential:
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        ops=schedule,
        reliable=st.booleans(),
        rekey=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_heap_matches_full_scan(self, seed, ops, reliable, rekey):
        config_kwargs = dict(
            chain_length=16,
            rekey_threshold=2 if rekey else 0,
            retransmit_timeout_s=0.05,
            max_retries=4,
            reliability=(
                ReliabilityMode.RELIABLE if reliable
                else ReliabilityMode.UNRELIABLE
            ),
            # Retransmit identically in both worlds: jitter draws happen
            # on firing, and the firing *sets* must match anyway — but a
            # fixed timeout makes any divergence loudly reproducible.
            adaptive_rto=False,
            backoff_jitter=0.0,
        )
        heap = make_world(False, seed, config_kwargs)
        scan = make_world(True, seed, config_kwargs)
        for world in (heap, scan):
            _, hs1 = world["a"].connect("b")
            world["outbox"].append(("a", "b", hs1))

        now = 0.0
        sent = 0
        for op, arg in ops:
            if op == "advance":
                now += (arg % 100) / 250.0  # 0..0.4s steps
                assert poll_world(heap, now) == poll_world(scan, now)
            elif op == "send":
                message = b"m%d" % sent
                sent += 1
                for world in (heap, scan):
                    if (
                        "b" in world["a"]._by_peer
                        and world["a"].association("b").established
                        and not world["a"].association("b").down
                    ):
                        world["a"].send("b", message)
                assert poll_world(heap, now) == poll_world(scan, now)
            else:
                assert [x[:2] for x in heap["outbox"]] == [
                    x[:2] for x in scan["outbox"]
                ]
                transfer(heap, arg, now, drop=(op == "drop"))
                transfer(scan, arg, now, drop=(op == "drop"))

        # Let both worlds run to quiescence on timers alone.
        for _ in range(80):
            now += 0.05
            assert poll_world(heap, now) == poll_world(scan, now)
            while heap["outbox"]:
                transfer(heap, 0, now, drop=False)
                transfer(scan, 0, now, drop=False)

        assert sorted(heap["delivered"]) == sorted(scan["delivered"])
        assert sorted(heap["failures"]) == sorted(scan["failures"])
        assert sorted(heap["a"]._by_id) == sorted(scan["a"]._by_id)
        assert sorted(heap["b"]._by_id) == sorted(scan["b"]._by_id)
