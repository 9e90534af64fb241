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

from .frame import Frame, MessageType
from .protocol import IDLE, PacketMeta, RadioNode, ResponseRecord


@dataclass(frozen=True)
class CsmaParams:
    """Channel-access and forwarding constants; times in milliseconds."""

    min_backoff_exponent: int = 3
    max_backoff_exponent: int = 5
    max_csma_backoffs: int = 4
    cca_ms: int = 8
    slot_ms: int = 20
    next_hop_metric: str = "link"

    def __post_init__(self) -> None:
        if not 0 <= self.min_backoff_exponent <= self.max_backoff_exponent:
            raise ValueError("backoff exponents must satisfy 0 <= min <= max")
        if self.max_csma_backoffs < 0:
            raise ValueError("max_csma_backoffs must be non-negative")
        if self.cca_ms < 1 or self.slot_ms < 1:
            raise ValueError("cca_ms and slot_ms must be at least 1 ms")
        if self.next_hop_metric not in ("link", "dst"):
            raise ValueError(
                f"next_hop_metric must be 'link' or 'dst': {self.next_hop_metric!r}"
            )


@dataclass
class _CsmaItem:
    frame: Frame
    target: int | None = None
    uid: int | None = None


class AodvNode(RadioNode):
    """One station running the always-on greedy baseline."""

    def __init__(self, node_id: int, sim) -> None:
        super().__init__(node_id, sim)
        self.csma: CsmaParams = sim.csma_params
        self._csma_queue: deque[_CsmaItem] = deque()
        self._csma_item: _CsmaItem | None = None
        self._csma_nb = 0
        self._csma_be = self.csma.min_backoff_exponent

    # ---- channel access ---------------------------------------------------

    def send(self, frame: Frame, target: int | None = None, uid: int | None = None) -> None:
        """Queue the frame for the channel; it goes on the air after a clear CCA."""
        self._csma_queue.append(_CsmaItem(frame, target, uid))
        if self._csma_item is None:
            self._csma_next()

    def _csma_next(self) -> None:
        self._csma_item = self._csma_queue.popleft()
        self._csma_nb = 0
        self._csma_be = self.csma.min_backoff_exponent
        self._arm_cca()

    def _arm_cca(self) -> None:
        delay = self.sim.engine.draw_uniform(self.id, 1 << self._csma_be) * self.csma.slot_ms
        self._arm("cca", self.sim.engine.now + delay)

    def on_timer(self, tag: str, ref: int, token: int) -> None:
        if tag == "cca":
            if self._is_live(tag, token) and self._csma_item is not None:
                self._cca_sample()
        elif tag == "csma-idle":
            if self._is_live(tag, token):
                self._csma_item = None
                if self._csma_queue:
                    self._csma_next()
        else:
            super().on_timer(tag, ref, token)

    def _cca_sample(self) -> None:
        item = self._csma_item
        assert item is not None
        if self.sim.channel_busy(self.id):
            self._csma_nb += 1
            self._csma_be = min(self._csma_be + 1, self.csma.max_backoff_exponent)
            if self._csma_nb > self.csma.max_csma_backoffs:
                self._csma_abandon(item)
                return
            self._arm_cca()
            return
        at = self.sim.engine.now + self.csma.cca_ms
        self.sim.transmit_at(at, self.id, item.frame, only_to=item.target, uid=item.uid)
        self._on_air(item.frame, item.target, item.uid, at)
        # hold the channel state until the transmission tick has passed
        self._arm("csma-idle", at + 1)

    def _csma_abandon(self, item: _CsmaItem) -> None:
        self._csma_item = None
        t = item.frame.type
        if t is MessageType.SRC_BCAST or t is MessageType.ROUTING:
            if t is MessageType.ROUTING:
                self.current_target = item.target
            self.beb_backoff()
        # an abandoned response is simply never sent
        if self._csma_item is None and self._csma_queue:
            self._csma_next()

    # ---- next hop -------------------------------------------------------------

    def select_next_hop(
        self, meta: PacketMeta, responses: list[ResponseRecord]
    ) -> int:
        """Best responder strictly closer to the destination, else direct.

        Progress is measured by the responder's stored destination RSSI
        against the sender's own. Among progressing responders the strongest
        link wins ("link", the default); next_hop_metric = "dst" prefers the
        strongest destination RSSI instead. Without any progressing responder
        the packet goes straight at the destination.
        """
        own = self.dst_rssi if self.dst_rssi is not None else -(10**9)
        candidates = [r for r in responses if r.dst_rssi > own]
        if not candidates:
            return self.destination
        if self.csma.next_hop_metric == "dst":
            best = max(candidates, key=lambda r: (r.dst_rssi, -r.responder))
        else:
            best = max(candidates, key=lambda r: (r.link_rssi, -r.responder))
        return best.responder

    # ---- queue hook -----------------------------------------------------------

    def _on_free(self) -> None:
        """Start on the queue head as soon as the node is idle."""
        if self.queue and self.phase == IDLE:
            self._start_handshake()
