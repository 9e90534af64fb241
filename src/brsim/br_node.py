"""Basketball routing node.

Every station has a coin for each decision epoch: with probability p it
listens (and may relay for others), otherwise it transmits any queued data
of its own. Each station keeps its own epoch grid: a uniform offset in
[0, epoch_ms), then one epoch every epoch_ms. The coin of an epoch is a pure
function of (run seed, station, epoch index) (see the engine module), so a
station runs its epochs only while it holds a packet. Forwarding
is greedy on the responders' stored destination RSSI; when no responder
beats the sender's own reading, or nobody answered at all, the node shoots
directly at the destination. Once a packet has travelled more than loop_threshold hops,
stations it already passed through are excluded from the candidate set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import MAX_BOUND, DecisionEpoch, coin_key, epoch_coin
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
        engine, p = sim.engine, self.params
        self._epoch = DecisionEpoch(node_id)  # one event, scheduled for every epoch
        self._epoch_due = False  # whether that event is in the engine's heap
        self._key = coin_key(engine.run_seed, node_id)
        # the destination never relays: its coin never says listen
        self._threshold = 0 if self.is_destination else round(p.relay_probability * (1 << 53))
        self._coin_epoch: int | None = None  # the epoch whose coin was read last
        self._coin = False
        self.offset = 0
        if not self.is_destination:
            self.offset = engine.draw_uniform(self.id, p.epoch_ms)

    # ---- epoch ------------------------------------------------------------

    @property
    def listening(self) -> bool:
        """The coin of the epoch that holds now; an epoch starts at its tick.

        Epoch k covers [offset + k*epoch_ms, offset + (k+1)*epoch_ms), and
        epoch -1 runs from t = 0 until the first one. With p = 0 a station
        never listens and with p = 1 it never transmits its own data.
        """
        k = (self.sim.engine.now - self.offset) // self.params.epoch_ms
        if k != self._coin_epoch:
            self._coin_epoch = k
            self._coin = epoch_coin(self._key, k, self._threshold)
        return self._coin

    def on_epoch(self) -> None:
        """In transmit mode, start on queued data if free; then schedule the next epoch.

        A station runs epochs only while it holds a packet: one that holds
        none schedules no next epoch, and _on_free schedules one again when
        a packet comes. The next epoch is scheduled last, so a timer armed
        here wins a same-tick tie with it. The destination takes no epochs.
        """
        if not self.queue:
            self._epoch_due = False
            return
        if not self.in_hop and not self.listening:
            self._start_handshake()
        engine = self.sim.engine
        engine.schedule(engine.now + self.params.epoch_ms, self._epoch)

    def _on_free(self) -> None:
        """A station that holds a packet has an epoch due: the grid tick at or after now."""
        if self.queue and not self._epoch_due:
            self._epoch_due = True
            engine = self.sim.engine
            now = engine.now
            engine.schedule(now + (self.offset - now) % self.params.epoch_ms, self._epoch)

    # ---- channel access -------------------------------------------------------

    def send(self, frame: Frame, target: int | None = None, uid: int | None = None) -> None:
        """Transmit at once: BR stations do not sense the channel."""
        self._on_air(frame, target, uid, self.sim.engine.now)

    # ---- next hop -------------------------------------------------------------

    def select_next_hop(
        self, meta: PacketMeta, responses: list[ResponseRecord]
    ) -> int:
        """Pick the next receiver for the queued packet.

        Highest reported destination RSSI wins, ties going to the lowest
        station id. If the sender's own reading is at least as good as the
        best offer, or no admissible responder exists, the packet is shot
        directly at the destination. Past loop_threshold hops, the stations
        that already forwarded this packet are not admissible.
        """
        if meta.hop_count > self.params.loop_threshold:
            visited = self.prior_forwarders[meta.uid]
            responses = [r for r in responses if r.responder not in visited]
        if not responses:
            return self.destination
        best = max(responses, key=lambda r: (r.dst_rssi, -r.responder))
        if self.dst_rssi is not None and self.dst_rssi >= best.dst_rssi:
            return self.destination
        return best.responder

