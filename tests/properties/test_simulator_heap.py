"""Property test: the simulator's heap vs a sorted-list reference.

:class:`~repro.netsim.simulator.Simulator` keeps ``(time, seq, event)``
tuples in a binary heap and cancels lazily. The reference here keeps a
plain list sorted by ``(time, seq)`` and removes cancelled entries on
the spot. Hypothesis draws scripts of ``schedule``, ``schedule_at``,
``cancel``, ``step`` and ``run(until=..., max_events=...)`` over a
handful of timestamps, so equal times are the rule, not the exception;
some events schedule a child when they fire. After every operation the
firing order so far, ``now``, ``pending`` and ``events_processed``
must agree.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.netsim.simulator import Simulator

#: Few distinct delays and times: ties dominate.
DELAYS = (0.0, 0.5, 1.0, 1.5)
TIMES = (0.0, 0.5, 1.0, 2.0, 3.0)


class ReferenceSimulator:
    """Sorted list of ``[time, seq, label, child_delay]``; no heap."""

    def __init__(self) -> None:
        self.now = 0.0
        self.entries: list[list] = []
        self.handles: list[list] = []
        self.seq = 0
        self.events_processed = 0
        self.fired: list[str] = []

    def schedule_at(self, time: float, label: str, child: float | None) -> None:
        entry = [time, self.seq, label, child]
        self.seq += 1
        self.entries.append(entry)
        self.entries.sort(key=lambda e: (e[0], e[1]))
        self.handles.append(entry)

    def cancel(self, index: int) -> None:
        entry = self.handles[index]
        if entry in self.entries:
            self.entries.remove(entry)

    def step(self) -> bool:
        if not self.entries:
            return False
        time, _, label, child = self.entries.pop(0)
        self.now = time
        self.events_processed += 1
        self.fired.append(label)
        if child is not None:
            self.schedule_at(self.now + child, label + "'", None)
        return True

    def run(self, until: float, max_events: int | None) -> None:
        processed = 0
        while self.entries:
            if self.entries[0][0] > until:
                self.now = until
                return
            if max_events is not None and processed >= max_events:
                raise RuntimeError("max_events")
            self.step()
            processed += 1
        if until > self.now:
            self.now = until

    @property
    def pending(self) -> int:
        return len(self.entries)


class HeapWorld:
    """The real simulator, driven through its public API."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.handles = []
        self.fired: list[str] = []

    def _fire(self, label: str, child: float | None) -> None:
        self.fired.append(label)
        if child is not None:
            self.schedule(child, label + "'", None)

    def schedule(self, delay: float, label: str, child: float | None) -> None:
        self.handles.append(self.sim.schedule(delay, self._fire, label, child))

    def schedule_at(self, time: float, label: str, child: float | None) -> None:
        self.handles.append(self.sim.schedule_at(time, self._fire, label, child))

    def cancel(self, index: int) -> None:
        self.handles[index].cancel()


ops = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from(DELAYS),
              st.none() | st.sampled_from(DELAYS)),
    st.tuples(st.just("schedule_at"), st.sampled_from(TIMES),
              st.none() | st.sampled_from(DELAYS)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), st.sampled_from(TIMES),
              st.none() | st.integers(min_value=0, max_value=4)),
)


def apply(op, ref: ReferenceSimulator, world: HeapWorld, label: str) -> None:
    kind = op[0]
    sim = world.sim
    if kind in ("schedule", "schedule_at"):
        time = ref.now + op[1] if kind == "schedule" else op[1]
        if time < ref.now:
            return  # the past is rejected; pinned by tests/netsim
        ref.schedule_at(time, label, op[2])
        getattr(world, kind)(op[1], label, op[2])
    elif kind == "cancel":
        # Handles are created in the same order in both worlds, children
        # included, so one index names the same event in each.
        if ref.handles:
            index = op[1] % len(ref.handles)
            ref.cancel(index)
            world.cancel(index)
    elif kind == "step":
        assert sim.step() == ref.step()
    else:
        _, until, max_events = op
        if until < ref.now:
            return
        outcomes = []
        for run in (lambda: ref.run(until, max_events),
                    lambda: sim.run(until=until, max_events=max_events)):
            try:
                run()
                outcomes.append(None)
            except RuntimeError:
                outcomes.append(RuntimeError)
        assert outcomes[0] == outcomes[1]


@given(script=st.lists(ops, max_size=60))
@settings(max_examples=300, deadline=None)
def test_heap_matches_sorted_list(script):
    ref, world = ReferenceSimulator(), HeapWorld()
    for number, op in enumerate(script):
        apply(op, ref, world, f"e{number}")
        assert world.fired == ref.fired
        assert world.sim.now == ref.now
        assert world.sim.pending == ref.pending
        assert world.sim.events_processed == ref.events_processed
    world.sim.run(until=10.0)
    ref.run(10.0, None)
    assert world.fired == ref.fired
    assert world.sim.now == ref.now
