"""Basketball routing node.

Every station flips a coin at the start of each decision epoch: with
probability p it listens (and may relay for others), otherwise it transmits
any queued data of its own. Forwarding is greedy on the responders' stored
destination RSSI; when no responder beats the sender's own reading, or nobody
answered at all, the node shoots directly at the destination. Once a packet
has travelled more than loop_threshold hops, stations it already passed
through are excluded from the candidate set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .frame import Frame
from .protocol import IDLE, PacketMeta, RadioNode, ResponseRecord


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


class BrNode(RadioNode):
    """One station running the coin-flip relay protocol."""

    def __init__(self, node_id: int, sim) -> None:
        super().__init__(node_id, sim)
        # Mode until the first scheduled epoch: drawn from the same coin, so
        # the degenerate probabilities behave exactly from t = 0 onward.
        self.listening = not self.is_destination and sim.engine.bernoulli(
            self.id, self.params.relay_probability
        )

    # ---- epoch ------------------------------------------------------------

    def on_epoch(self) -> None:
        """Redraw the mode; in transmit mode, start on queued data if free.

        The coin is flipped every epoch regardless of queue state, so with
        p = 0 no station ever listens and with p = 1 none ever transmits its
        own data. The destination takes no epochs at all.
        """
        if self.is_destination:
            return
        self.listening = self.sim.engine.bernoulli(
            self.id, self.params.relay_probability
        )
        if not self.listening and self.queue and self.phase == IDLE:
            self._start_handshake()

    # ---- channel access -------------------------------------------------------

    def send(self, frame: Frame, target: int | None = None, uid: int | None = None) -> None:
        """Transmit at once: BR stations do not sense the channel."""
        self.sim.transmit(self.id, frame, only_to=target, uid=uid)
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
