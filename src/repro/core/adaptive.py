"""Adaptive channel controller — the "adaptive" in ALPHA made real.

The paper's Section 3.3 analysis shows no single configuration wins
everywhere: plain ALPHA has the lowest latency at low rates, ALPHA-C the
lowest byte overhead on clean links (one S1 carries the whole {Mc}
list), and ALPHA-M degrades most gracefully under loss (the S1 is one
root regardless of batch size, and each S2 authenticates independently
through its Merkle path). Related runtime-switching schemes (CSM for
RPL, enhanced chain signatures) draw the same conclusion: chain-based
authentication lives or dies on per-link tuning.

:class:`AdaptiveController` closes the loop. It samples a signer's
resilience counters and RTT estimator on a fixed decision interval,
maintains an EWMA loss estimate from the retransmit ratio, and re-tunes
the live :class:`~repro.core.signer.ChannelConfig`:

* **mode** — ``BASE`` while the queue is shallow, ``CUMULATIVE`` when a
  queue builds on a clean link, ``MERKLE`` when it builds on a lossy
  one;
* **batch_size** — tracks the queue depth in powers of two within
  ``[batch_min, batch_max]`` (cumulative batches additionally capped so
  the S1's pre-signature list stays inside the relay's S1 allowance);
* **max_outstanding** — pipelining deepens on clean backlogged links
  and collapses to 1 under loss, where concurrent exchanges mostly
  multiply ambiguous (Karn-poisoned) retransmissions.

Decisions respect hysteresis (distinct enter/exit thresholds for both
the loss and the queue signal) and a mode-switch cooldown, so the
controller cannot flap between modes on boundary noise. Switches are
protocol-clean by construction: :meth:`SignerSession.reconfigure` only
affects *future* exchanges, every S1 carries its mode on the wire, and
verifier/relay state is per-exchange — in-flight exchanges complete
under the configuration they started with.

Every decision is recorded (``decisions``), emitted as an
``ADAPT_SWITCH`` / ``ADAPT_TUNE`` trace event, and mirrored into
``adaptive.*`` gauges, so ``python -m repro trace adaptive`` can show a
controller run end to end. PROTOCOL.md §10 documents the signals and
thresholds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.modes import Mode
from repro.core.signer import ChannelConfig, SignerSession
from repro.obs import OBS_OFF, EventKind, Observability
from repro.obs.linkhealth import LinkHealth


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tuning knobs of the feedback controller."""

    #: Seconds between decision ticks; sampling faster than the RTT just
    #: re-reads the same counters.
    decision_interval_s: float = 0.5
    #: Decision ticks with traffic observed before the first decision.
    warmup_intervals: int = 2
    #: Smoothing factor for the loss EWMA (higher = more reactive).
    ewma_alpha: float = 0.3
    #: Loss hysteresis band: at or above ``loss_enter`` a batched channel
    #: moves to ALPHA-M; only at or below ``loss_exit`` does it move
    #: back. The gap absorbs estimator noise around one threshold.
    loss_enter: float = 0.05
    loss_exit: float = 0.02
    #: Queue hysteresis band (messages waiting): enter a batched mode at
    #: ``queue_enter``, return to BASE only when the queue has drained
    #: below ``queue_exit``.
    queue_enter: int = 4
    queue_exit: int = 1
    #: Minimum seconds between *mode* switches (batch/pipelining tunes
    #: are merely interval-gated). The flap killer.
    switch_cooldown_s: float = 2.0
    #: Batch-size bounds for the batched modes.
    batch_min: int = 2
    batch_max: int = 32
    #: Cap on pre-signatures per cumulative S1, keeping the packet well
    #: inside the relay's default 1536-byte S1 allowance (Merkle S1s are
    #: constant-size and need no cap).
    s1_presig_budget: int = 32
    #: Pipelining ceiling on clean, backlogged links.
    max_outstanding_cap: int = 4
    #: Mean payload size at which the per-message interlock overhead of
    #: BASE becomes marginal; above it the controller demands twice the
    #: backlog before batching (large messages amortize their own S1).
    large_message_bytes: int = 1024
    #: Fraction of classified loss at which one cause counts as
    #: *dominant* (PROTOCOL.md §11). Only consulted once the link
    #: ledger's split is backed by enough loss events.
    cause_split_threshold: float = 0.6
    #: Batch ceiling while corruption dominates the loss split. A
    #: smaller batch means each A1's pre-ack block covers fewer S2s —
    #: tighter pre-ack spacing (paper §3.3.3), so a damaged S2 is
    #: nacked and repaired after fewer in-flight packets.
    corruption_batch_cap: int = 8
    #: Half-life for aging the ledger's carried-over loss estimate
    #: before seeding a fresh association from it (a link that
    #: recovered since the last association must not be seeded into the
    #: loss-protective mode it no longer needs).
    loss_half_life_s: float = 60.0

    def __post_init__(self) -> None:
        if self.decision_interval_s <= 0:
            raise ValueError("decision interval must be positive")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("EWMA alpha must be in (0, 1]")
        if not 0 <= self.loss_exit <= self.loss_enter <= 1:
            raise ValueError("need 0 <= loss_exit <= loss_enter <= 1")
        if not 0 <= self.queue_exit <= self.queue_enter:
            raise ValueError("need 0 <= queue_exit <= queue_enter")
        if self.switch_cooldown_s < 0:
            raise ValueError("cooldown must be non-negative")
        if not 1 <= self.batch_min <= self.batch_max:
            raise ValueError("need 1 <= batch_min <= batch_max")
        if self.s1_presig_budget < 1:
            raise ValueError("S1 pre-signature budget must be positive")
        if self.max_outstanding_cap < 1:
            raise ValueError("outstanding cap must be at least 1")
        if self.warmup_intervals < 0:
            raise ValueError("warmup must be non-negative")
        if not 0.5 <= self.cause_split_threshold <= 1.0:
            raise ValueError("cause split threshold must be in [0.5, 1]")
        if self.corruption_batch_cap < 1:
            raise ValueError("corruption batch cap must be positive")
        if self.loss_half_life_s <= 0:
            raise ValueError("loss half-life must be positive")


@dataclass(frozen=True)
class Decision:
    """One applied re-tuning, with the signals that justified it."""

    at: float
    #: "switch" (mode changed), "tune" (batch/pipelining), or "seed"
    #: (initial configuration adopted from the link ledger).
    kind: str
    mode: Mode
    batch_size: int
    max_outstanding: int
    loss: float
    srtt: float | None
    queue: int
    reason: str


class AdaptiveController:
    """Per-association feedback loop over one signer's channel."""

    def __init__(
        self,
        signer: SignerSession,
        config: AdaptiveConfig | None = None,
        obs: Observability | None = None,
        node: str = "",
        link: LinkHealth | None = None,
    ) -> None:
        self.signer = signer
        self.config = config if config is not None else AdaptiveConfig()
        self._obs = obs if obs is not None else OBS_OFF
        self._node = node or "adaptive"
        #: Cross-association link ledger: seeds the loss estimate (see
        #: :meth:`seed_from_link`), receives each tick's estimate back,
        #: and supplies the congestion/corruption split.
        self.link = link
        self.decisions: list[Decision] = []
        self.loss_ewma = 0.0
        self._samples = 0
        self._last_tick: float | None = None
        self._last_switch_at: float | None = None
        #: True from an applied ledger seed until the association first
        #: sends: idle ticks carry no evidence against the seed.
        self._seed_held = False
        self._last_packets = signer.stats.packets_sent
        self._last_retransmits = signer.stats.retransmits

    # -- sampling --------------------------------------------------------------

    def _sample(self, now: float) -> None:
        """Fold the interval's counter deltas into the loss estimate."""
        stats = self.signer.stats
        d_packets = stats.packets_sent - self._last_packets
        d_retrans = stats.retransmits - self._last_retransmits
        self._last_packets = stats.packets_sent
        self._last_retransmits = stats.retransmits
        if d_packets <= 0:
            return  # idle interval: no information, keep the estimate
        self._seed_held = False
        sample = min(1.0, d_retrans / d_packets)
        self.loss_ewma += self.config.ewma_alpha * (sample - self.loss_ewma)
        self._samples += 1
        if self.link is not None:
            # The ledger carries the estimate across associations: the
            # next association's controller seeds from it (time-decayed
            # by seed_from_link, hence the timestamp).
            self.link.update_loss_estimate(self.loss_ewma, now)

    # -- targets (hysteresis lives here) ---------------------------------------

    def _lossy(self, mode: Mode) -> bool:
        if mode.constant_s1:
            # Already in the loss-protective mode: stay until the
            # estimate drops out of the band.
            return self.loss_ewma > self.config.loss_exit
        return self.loss_ewma >= self.config.loss_enter

    def _corruption_dominated(self) -> bool:
        """True when the link ledger confidently blames corruption.

        Corruption loss carries none of congestion's implications: the
        path is not overloaded, so collapsing pipelining or growing
        batches to shed interlock packets would only slow repair down.
        """
        link = self.link
        if link is None or not link.split_confident:
            return False
        _, corruption = link.loss_split()
        return corruption >= self.config.cause_split_threshold

    def _backlogged(self, mode: Mode, queue: int) -> bool:
        enter = self.config.queue_enter
        if self.signer.mean_message_size >= self.config.large_message_bytes:
            enter *= 2  # large payloads amortize their own interlock
        if mode.batched:
            return queue > self.config.queue_exit
        return queue >= enter

    def _target_mode(self, queue: int) -> Mode:
        current = self.signer.config.mode
        if not self._backlogged(current, queue):
            return Mode.BASE
        return Mode.MERKLE if self._lossy(current) else Mode.CUMULATIVE

    def _target_batch(self, mode: Mode, queue: int) -> int:
        if not mode.batched:
            return self.signer.config.batch_size  # irrelevant in BASE
        # Smallest power of two covering the backlog, clamped: the
        # signer takes min(batch, queue) per exchange anyway, so
        # rounding *up* lets one exchange swallow the whole queue where
        # rounding down would fragment the tail into small exchanges
        # that each pay a full S1/A1 interlock.
        target = 1 << max(queue - 1, 0).bit_length()
        target = max(self.config.batch_min, min(self.config.batch_max, target))
        if not mode.constant_s1:
            target = min(target, self.config.s1_presig_budget)
        if self._lossy(mode) and self._corruption_dominated():
            # Corruption-dominated loss: tighten the pre-ack spacing.
            # Each A1's pre-(n)ack block covers one batch, so a smaller
            # batch localizes a damaged S2 after fewer in-flight packets
            # (paper §3.3.3 picks the spacing from link conditions).
            target = min(target, self.config.corruption_batch_cap)
        return target

    def _target_outstanding(self, mode: Mode, lossy: bool, queue: int) -> int:
        current = self.signer.config.max_outstanding
        if lossy and not self._corruption_dominated():
            # Concurrent exchanges under congestion loss mostly multiply
            # ambiguous retransmissions; collapse to the paper's
            # sequential scheme. Corruption-dominated loss keeps its
            # pipelining — the path is not overloaded, and explicit
            # nacks repair damage without Karn-poisoned timeouts.
            return 1
        batch = max(self._target_batch(mode, queue), 1)
        if queue >= 2 * batch and mode.batched:
            return min(self.config.max_outstanding_cap, max(current, 1) * 2)
        if queue <= self.config.queue_exit:
            return max(1, current // 2)
        return current

    # -- seeding ---------------------------------------------------------------

    def seed_from_link(self, now: float = 0.0) -> ChannelConfig | None:
        """Adopt the link ledger's known state instead of starting blind.

        Called once when the association is installed. The loss estimate
        continues from the link's last known value, the warmup
        requirement is waived (cross-association history substitutes for
        it), and when the ledger already knows the link is lossy the
        channel starts in the loss-protective Merkle mode — a fresh
        association on a known-bad link must not relearn the loss rate
        through a BASE-mode loss episode. Returns the applied config
        when one was, ``None`` when the ledger has nothing to teach.
        """
        link = self.link
        if link is None or not link.known:
            return None
        self.loss_ewma = link.loss_estimate(now, self.config.loss_half_life_s)
        self._samples = max(self._samples, self.config.warmup_intervals)
        if self.loss_ewma < self.config.loss_enter:
            return None
        current = self.signer.config
        queue = self.signer.queue_depth
        mode = Mode.MERKLE
        batch = self._target_batch(mode, queue)
        outstanding = self._target_outstanding(mode, True, queue)
        applied = dataclasses.replace(
            current, mode=mode, batch_size=batch, max_outstanding=outstanding
        )
        if applied == current:
            return None
        self.signer.reconfigure(applied)
        self._last_switch_at = now
        self._seed_held = True
        decision = Decision(
            at=now,
            kind="seed",
            mode=mode,
            batch_size=batch,
            max_outstanding=outstanding,
            loss=self.loss_ewma,
            srtt=link.srtt,
            queue=queue,
            reason=(
                f"ledger mode={current.mode.name.lower()}->{mode.name.lower()}"
                f" loss={self.loss_ewma:.3f} links_seen={link.associations}"
            ),
        )
        self.decisions.append(decision)
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.ADAPT_SWITCH, self.signer.assoc_id,
                info=decision.reason,
            )
            self._obs.registry.counter("adaptive.seeds").inc()
            self._obs.registry.gauge("adaptive.mode").set(int(mode))
            self._obs.registry.gauge("adaptive.batch_size").set(batch)
            self._obs.registry.gauge("adaptive.max_outstanding").set(outstanding)
        return applied

    # -- the loop --------------------------------------------------------------

    def poll(self, now: float) -> ChannelConfig | None:
        """One controller tick; returns the new config when re-tuned.

        Safe to call every engine poll: work happens at most once per
        ``decision_interval_s``. The returned config (if any) has
        already been applied via :meth:`SignerSession.reconfigure`.
        """
        interval = self.config.decision_interval_s
        if self._last_tick is not None and now - self._last_tick < interval:
            return None
        self._last_tick = now
        self._sample(now)
        queue = self.signer.queue_depth
        srtt = self.signer.rtt.srtt
        if self._obs.enabled:
            registry = self._obs.registry
            registry.gauge("adaptive.loss_ewma").set(round(self.loss_ewma, 6))
            registry.gauge("adaptive.queue_depth").set(queue)
            registry.gauge("adaptive.mode").set(int(self.signer.config.mode))
            if srtt is not None:
                registry.gauge("adaptive.srtt_s").set(round(srtt, 6))
        if self._samples < self.config.warmup_intervals or self._seed_held:
            # A seeded channel holds until it has carried traffic: an
            # idle association falling back to BASE would send its first
            # exchange in BASE on a link the ledger knows is lossy.
            return None
        current = self.signer.config
        mode = self._target_mode(queue)
        if mode is not current.mode and not self._cooldown_over(now):
            mode = current.mode  # hold: a switch this soon would flap
        lossy = self._lossy(mode)
        batch = self._target_batch(mode, queue)
        outstanding = self._target_outstanding(mode, lossy, queue)
        if (
            mode is current.mode
            and batch == current.batch_size
            and outstanding == current.max_outstanding
        ):
            return None
        applied = dataclasses.replace(
            current,
            mode=mode,
            batch_size=batch,
            max_outstanding=outstanding,
        )
        self.signer.reconfigure(applied)
        switched = mode is not current.mode
        if switched:
            self._last_switch_at = now
        decision = Decision(
            at=now,
            kind="switch" if switched else "tune",
            mode=mode,
            batch_size=batch,
            max_outstanding=outstanding,
            loss=self.loss_ewma,
            srtt=srtt,
            queue=queue,
            reason=self._reason(current, applied, queue),
        )
        self.decisions.append(decision)
        if self._obs.enabled:
            kind = EventKind.ADAPT_SWITCH if switched else EventKind.ADAPT_TUNE
            self._obs.tracer.emit(
                now, self._node, kind, self.signer.assoc_id,
                info=decision.reason,
            )
            name = "adaptive.switches" if switched else "adaptive.tunes"
            self._obs.registry.counter(name).inc()
            self._obs.registry.gauge("adaptive.mode").set(int(mode))
            self._obs.registry.gauge("adaptive.batch_size").set(batch)
            self._obs.registry.gauge("adaptive.max_outstanding").set(outstanding)
        return applied

    def _cooldown_over(self, now: float) -> bool:
        if self._last_switch_at is None:
            return True
        return now - self._last_switch_at >= self.config.switch_cooldown_s

    def _reason(
        self, old: ChannelConfig, new: ChannelConfig, queue: int
    ) -> str:
        parts = []
        if new.mode is not old.mode:
            parts.append(f"mode={old.mode.name.lower()}->{new.mode.name.lower()}")
        if new.batch_size != old.batch_size:
            parts.append(f"batch={old.batch_size}->{new.batch_size}")
        if new.max_outstanding != old.max_outstanding:
            parts.append(
                f"outstanding={old.max_outstanding}->{new.max_outstanding}"
            )
        parts.append(f"loss={self.loss_ewma:.3f}")
        parts.append(f"queue={queue}")
        return " ".join(parts)
