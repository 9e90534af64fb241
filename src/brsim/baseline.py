"""Reactive shortest-path baseline over CSMA/CA.

Stations are always listening: any station that has heard a destination
beacon answers every RTS, so each handshake surveys the full audible
neighbourhood. The sender then forwards to the responder with the strongest
link among those strictly closer to the destination (by stored destination
RSSI), which reproduces the short, greedy hops of a reactive distance-vector
route on this radio model.

All outbound frames contend for the channel with slotted binary exponential
backoff and a clear-channel check before each transmission; a frame that
exhausts its clear-channel retries is abandoned, which for RTS and data
frames counts as a failed hop attempt.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .engine import TimerFire
from .frame import Frame, MessageType
from .protocol import PacketMeta, RadioNode, ResponseRecord

# a failed hop attempt is an abandoned RTS or data frame, never a Response
_HOP_FRAMES = (MessageType.SRC_BCAST, MessageType.ROUTING)


@dataclass(frozen=True)
class CsmaParams:
    """Channel-access constants; times in milliseconds."""

    min_backoff_exponent: int = 3
    max_backoff_exponent: int = 5
    max_csma_backoffs: int = 4
    cca_ms: int = 8
    slot_ms: int = 20

    def __post_init__(self) -> None:
        if not 0 <= self.min_backoff_exponent <= self.max_backoff_exponent:
            raise ValueError("backoff exponents must satisfy 0 <= min <= max")
        if self.max_backoff_exponent > 64:  # a window of 2**64 slots is one draw
            raise ValueError("max_backoff_exponent must be at most 64")
        if self.max_csma_backoffs < 0:
            raise ValueError("max_csma_backoffs must be non-negative")
        for name in ("cca_ms", "slot_ms"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1 ms")


class AodvNode(RadioNode):
    """One station running the always-on greedy baseline."""

    def __init__(self, node_id: int, sim) -> None:
        super().__init__(node_id, sim)
        self.csma: CsmaParams = sim.csma_params
        # Frames waiting for the channel as (frame, target, uid). The head is
        # the frame in contention: it leaves when its transmission tick has
        # passed or when it is abandoned. While the queue has a head, exactly
        # one of a `cca` timer or a `csma-idle` timer is in flight, so no
        # timer is stale.
        self._csma_queue: deque[tuple[Frame, int | None, int | None]] = deque()
        self._csma_nb = 0  # busy CCAs of the head; its backoff window grows with them
        # at most one of each is in flight, and neither is told apart by
        # identity, so each is one event scheduled again and again
        self._cca = TimerFire(node_id, "cca")
        self._idle = TimerFire(node_id, "csma-idle")

    # ---- channel access ---------------------------------------------------

    def send(self, frame: Frame, target: int | None = None, uid: int | None = None) -> None:
        """Queue the frame for the channel; it goes on the air after a clear CCA."""
        self._csma_queue.append((frame, target, uid))
        if len(self._csma_queue) == 1:
            self._csma_start()

    def _csma_start(self) -> None:
        """The queue head starts contending with a fresh backoff window."""
        self._csma_nb = 0
        self._arm_cca()

    def _arm_cca(self) -> None:
        c = self.csma
        exponent = min(c.min_backoff_exponent + self._csma_nb, c.max_backoff_exponent)
        delay = self.sim.engine.draw_uniform(self.id, 1 << exponent) * c.slot_ms
        self.sim.engine.schedule(self.sim.engine.now + delay, self._cca)

    def on_timer(self, timer: TimerFire) -> None:
        tag = timer.tag
        if tag == "cca":
            self._cca_sample()
        elif tag == "csma-idle":
            self._csma_queue.popleft()
            if self._csma_queue:
                self._csma_start()
        else:
            super().on_timer(timer)

    def _cca_sample(self) -> None:
        if self.sim.channel_busy(self.id):
            self._csma_nb += 1
            if self._csma_nb > self.csma.max_csma_backoffs:
                self._csma_abandon()
                return
            self._arm_cca()
            return
        engine = self.sim.engine
        frame, target, uid = self._csma_queue[0]
        at = engine.now + self.csma.cca_ms
        self._on_air(frame, target, uid, at)
        # hold the channel state until the transmission tick has passed
        engine.schedule(at + 1, self._idle)

    def _csma_abandon(self) -> None:
        frame = self._csma_queue.popleft()[0]
        waiting = bool(self._csma_queue)
        # a failed hop attempt may start a new RTS, which queues behind the
        # frames already waiting; an abandoned response is simply never sent
        if frame.type in _HOP_FRAMES:
            self.beb_backoff()
        if waiting:
            self._csma_start()

    # ---- next hop -------------------------------------------------------------

    def select_next_hop(
        self, meta: PacketMeta, responses: list[ResponseRecord]
    ) -> int:
        """Best responder strictly closer to the destination, else direct.

        Progress is measured by the responder's stored destination RSSI
        against the sender's own. Among progressing responders the strongest
        link wins, ties to the lowest id. Without any progressing responder
        the packet goes straight at the destination.
        """
        own = self.dst_rssi if self.dst_rssi is not None else -(10**9)
        candidates = [r for r in responses if r.dst_rssi > own]
        if not candidates:
            return self.destination
        best = max(candidates, key=lambda r: (r.link_rssi, -r.responder))
        return best.responder

    # ---- queue hook -----------------------------------------------------------

    def _on_free(self) -> None:
        """Start on the queue head as soon as the node is idle."""
        if self.queue and not self.in_hop:
            self._start_handshake()
