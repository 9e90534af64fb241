"""Basketball routing node.

Every station flips a coin at the start of each decision epoch: with
probability p it listens (and may relay for others), otherwise it transmits
any queued data of its own. Each station keeps its own epoch grid: a uniform
offset in [0, epoch_ms), then one epoch every epoch_ms (in an untraced run
an idle station skips the epochs it need not run; see on_epoch). Forwarding
is greedy on the responders' stored destination RSSI; when no responder
beats the sender's own reading, or nobody answered at all, the node shoots
directly at the destination. Once a packet has travelled more than loop_threshold hops,
stations it already passed through are excluded from the candidate set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import MAX_BOUND, DecisionEpoch
from .frame import Frame
from .protocol import PacketMeta, RadioNode, ResponseRecord


@dataclass(frozen=True)
class BrParams:
    """Protocol constants; times in milliseconds."""

    relay_probability: float = 0.73
    response_wait_ms: int = 5000
    ack_wait_ms: int = 2000
    bcast_ms: int = 10000
    loop_threshold: int = 10
    slot_ms: int = 20
    response_slot_bound: int = 8
    max_backoff_exponent: int = 5
    max_tx_attempts: int = 8
    epoch_ms: int = 5000
    hard_hop_cap: int = 40

    def __post_init__(self) -> None:
        if not 0.0 <= self.relay_probability <= 1.0:
            raise ValueError(f"relay_probability not a probability: {self.relay_probability}")
        for name in (
            "response_wait_ms",
            "ack_wait_ms",
            "bcast_ms",
            "slot_ms",
            "epoch_ms",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in (
            "loop_threshold",
            "response_slot_bound",
            "max_backoff_exponent",
            "max_tx_attempts",
            "hard_hop_cap",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        # epoch_ms and response_slot_bound each bound one uniform draw, and so
        # does a backoff window of 2**max_backoff_exponent slots
        for name in ("epoch_ms", "response_slot_bound"):
            if getattr(self, name) > MAX_BOUND:
                raise ValueError(f"{name} must be at most 2**64")
        if self.max_backoff_exponent > 64:
            raise ValueError("max_backoff_exponent must be at most 64")


class BrNode(RadioNode):
    """One station running the coin-flip relay protocol."""

    def __init__(self, node_id: int, sim) -> None:
        super().__init__(node_id, sim)
        # Mode until the first epoch: drawn from the same coin, so the
        # degenerate probabilities behave exactly from t = 0 onward. The
        # first epoch's offset is drawn next.
        self.listening = False
        self._parked_at: int | None = None  # the last epoch's tick while parked
        self._epoch = DecisionEpoch(node_id)  # one event, scheduled for every epoch
        if not self.is_destination:
            engine, p = sim.engine, self.params
            self.listening = engine.bernoulli(self.id, p.relay_probability)
            self.offset = engine.draw_uniform(self.id, p.epoch_ms)
            engine.schedule(self.offset, self._epoch)

    # ---- epoch ------------------------------------------------------------

    def on_epoch(self) -> None:
        """Redraw the mode; in transmit mode, start on queued data if free.

        The coin is flipped every epoch regardless of queue state, so with
        p = 0 no station ever listens and with p = 1 none ever transmits its
        own data. The next epoch is scheduled last, so a timer armed here wins
        a same-tick tie with it. The destination takes no epochs: none is
        ever scheduled for it.

        When the engine has a grid_ms (an untraced run), a station that
        holds no packet after its coin parks instead: it schedules no next
        epoch, since until it is woken its epochs would only redraw a coin
        that nothing reads. It keeps its grid and catches up on the coins it
        missed when it is read (on_rts) or woken (wake). Stations that share
        an offset share a grid; the engine wakes them together.
        """
        engine = self.sim.engine
        self.listening = engine.bernoulli(self.id, self.params.relay_probability)
        if self.queue:
            if not self.listening and not self.in_hop:
                self._start_handshake()
        elif engine.grid_ms:
            self._parked_at = engine.now
            engine.parked.setdefault(self.offset, []).append(self)
            return
        engine.schedule(engine.now + self.params.epoch_ms, self._epoch)

    def _catch_up(self) -> None:
        """Draw the coins of the grid epochs that ran while parked; stay parked.

        An epoch at the current tick counts as run if the event being
        processed was scheduled later than the eager epoch was, at
        now - epoch_ms. An event scheduled at that same tick comes before the
        epoch: engine.schedule wakes a parked clock before it files an event
        one period ahead onto the clock's grid.
        """
        engine = self.sim.engine
        period = self.params.epoch_ms
        now = engine.now
        last = now - (now - self.offset) % period  # the latest grid tick up to now
        if last == now and engine.since <= now - period:
            last -= period
        missed = (last - self._parked_at) // period
        if missed > 0:
            stream = engine.stream(self.id)
            for _ in range(missed - 1):
                stream.next_u64()  # a coin is one draw, and only the last is read
            self.listening = stream.bernoulli(self.params.relay_probability)
            self._parked_at = last

    def wake(self) -> None:
        """Catch up, then schedule the next grid epoch where it would have run (Engine.wake)."""
        self._catch_up()
        last, self._parked_at = self._parked_at, None
        self.sim.engine.schedule(last + self.params.epoch_ms, self._epoch, since=last)

    def on_rts(self, tx: int) -> None:
        if self._parked_at is not None:
            self._catch_up()
        super().on_rts(tx)

    def enqueue(self, meta: PacketMeta) -> None:
        if self._parked_at is not None:
            self.sim.engine.wake(self.offset)
        super().enqueue(meta)

    # ---- channel access -------------------------------------------------------

    def send(self, frame: Frame, target: int | None = None, uid: int | None = None) -> None:
        """Transmit at once: BR stations do not sense the channel."""
        self._on_air(frame, target, uid, self.sim.engine.now)

    # ---- next hop -------------------------------------------------------------

    def loop_filter(self, meta: PacketMeta, candidates: set[int]) -> set[int]:
        """Drop already-visited forwarders once the packet is long-travelled."""
        if meta.hop_count <= self.params.loop_threshold:
            return set(candidates)
        return set(candidates) - self.prior_forwarders[meta.uid]

    def select_next_hop(
        self, meta: PacketMeta, responses: list[ResponseRecord]
    ) -> int:
        """Pick the next receiver for the queued packet.

        Highest reported destination RSSI wins, ties going to the lowest
        station id. If the sender's own reading is at least as good as the
        best offer, or no admissible responder exists, the packet is shot
        directly at the destination.
        """
        allowed = self.loop_filter(meta, {r.responder for r in responses})
        candidates = [r for r in responses if r.responder in allowed]
        if not candidates:
            return self.destination
        best = max(candidates, key=lambda r: (r.dst_rssi, -r.responder))
        if self.dst_rssi is not None and self.dst_rssi >= best.dst_rssi:
            return self.destination
        return best.responder

