"""Shared node machinery: the hop handshake, packet bookkeeping, ACK/BEB logic.

Both protocol variants drive the same four-step hop, and it is written once,
here: broadcast an RTS, collect Response frames for a fixed window, pick a
receiver, send the Routing frame and wait for its Ack. Each subclass supplies
only its policy:

- `listening`: whether a station that holds a destination reading answers an
  RTS right now (BR's per-epoch coin; the baseline always listens);
- `select_next_hop`: which responder receives the packet;
- `send`: how a frame reaches the air (BR transmits at once, the baseline
  contends with CSMA/CA). `send` reports each frame's on-air tick back
  through `_on_air`, which arms the response window and the ack wait.

When a handshake starts is policy too: BR starts one at a transmit epoch
(`on_epoch`), the baseline as soon as it is idle with data (`_on_free`).

A node owns exactly one handshake at a time, for the head of its FIFO queue.
Timer staleness is handled with per-tag tokens: re-arming a tag invalidates
any timer already in flight for it.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .engine import TimerFire
from .frame import Ack, Frame, MessageType, Response, Routing, SrcBcast

if TYPE_CHECKING:
    from .simulation import Simulation


@dataclass
class PacketMeta:
    """Simulation-level identity of one data packet as held by one node.

    uid never appears on the wire; hop_count mirrors the Routing field and
    counts completed handovers.
    """

    uid: int
    source: int
    dest: int
    hop_count: int = 0


@dataclass
class _Pending:
    meta: PacketMeta
    attempts: int = 0  # failed transmission attempts for the current hop


@dataclass(frozen=True)
class ResponseRecord:
    responder: int
    dst_rssi: int
    link_rssi: int


IDLE = "idle"
AWAIT_RESPONSES = "responses"
AWAIT_ACK = "ack"
BACKOFF = "backoff"


class RadioNode:
    """Base station logic; subclasses supply the policy the module names."""

    listening = True

    def __init__(self, node_id: int, sim: "Simulation") -> None:
        self.id = node_id
        self.sim = sim
        self.params = sim.br_params
        self.destination = sim.topology.destination
        self.is_destination = node_id == self.destination
        self.dst_rssi: int | None = None
        self.queue: deque[_Pending] = deque()
        self.phase = IDLE
        self.responses: list[ResponseRecord] = []
        self.prior_forwarders: dict[int, set[int]] = defaultdict(set)
        self.current_target: int | None = None
        self._token = 0
        self._live: dict[str, int] = {}
        self._seen: set[int] = set()  # uids ever held here, for duplicate rejection

    # ---- timer plumbing -------------------------------------------------

    def _arm(self, tag: str, at: int, ref: int = 0) -> None:
        self._token += 1
        self._live[tag] = self._token
        self.sim.engine.schedule(at, TimerFire(self.id, tag, ref, self._token))

    def _is_live(self, tag: str, token: int) -> bool:
        return self._live.get(tag) == token

    # ---- frame entry point ----------------------------------------------

    def on_frame(self, frame: Frame, tx: int, uid: int | None, measured: int) -> None:
        t = frame.type
        if t is MessageType.DST_BCAST:
            self.on_dst_beacon(measured)
        elif t is MessageType.SRC_BCAST:
            self.on_rts(tx)
        elif t is MessageType.RESPONSE:
            self._collect_response(frame, measured)
        elif t is MessageType.ROUTING:
            self.on_routing(frame, tx, uid)
        else:
            self._on_ack(frame)

    def on_dst_beacon(self, measured: int) -> None:
        """Store the beacon reading; the latest measurement wins."""
        self.dst_rssi = measured

    def on_rts(self, tx: int) -> None:
        """Answer if this station may serve as a relay right now.

        The destination always answers. Other stations answer only while
        listening and only once a beacon has given them a destination
        reading to report.
        """
        if self.is_destination or (self.listening and self.dst_rssi is not None):
            self._schedule_response(tx)

    def _collect_response(self, frame: Response, measured: int) -> None:
        if self.phase == AWAIT_RESPONSES and frame.broadcast_node_id == self.id:
            self.responses.append(
                ResponseRecord(frame.response_node_id, frame.dst_rssi, measured)
            )

    def on_routing(self, frame: Routing, tx: int, uid: int | None) -> None:
        """Ack an addressed data frame, then deliver or requeue it.

        A packet this station already accepted is acked again but discarded:
        it is a retransmission whose earlier ack was lost, and taking it
        twice would fork phantom copies.
        """
        if frame.recv_node_id != self.id:
            return
        assert uid is not None, "routing frames always carry a uid"
        self.sim.transmit(self.id, Ack(self.id), only_to=tx)
        self.prior_forwarders[uid].add(tx)
        if frame.dest_node_id == self.id:
            self.sim.deliver(uid, frame.hop_count + 1)
            return
        if uid in self._seen:
            return
        next_hop = frame.hop_count + 1
        if next_hop > self.params.hard_hop_cap:
            self.sim.drop(uid, "hop_cap")
            return
        self.enqueue(PacketMeta(uid, frame.source_node_id, frame.dest_node_id, next_hop))

    def enqueue(self, meta: PacketMeta) -> None:
        self._seen.add(meta.uid)
        self.queue.append(_Pending(meta))
        self.sim.packet_queued()
        self._on_free()

    def _dequeue(self) -> _Pending:
        pending = self.queue.popleft()
        self.sim.packet_dequeued()
        return pending

    def _on_ack(self, frame: Ack) -> None:
        if self.phase != AWAIT_ACK or frame.response_node_id != self.current_target:
            return
        pending = self._dequeue()
        self.sim.record_hop(
            pending.meta.uid,
            self.id,
            self.current_target,
            success=True,
            attempts=pending.attempts + 1,
        )
        self.phase = IDLE
        self.current_target = None
        self._on_free()

    # ---- the hop ------------------------------------------------------------

    def _start_handshake(self) -> None:
        """Broadcast an RTS for the queue head and collect the answers."""
        self.responses = []
        self.phase = AWAIT_RESPONSES
        self.current_target = None
        self.send(SrcBcast(self.id), uid=self.queue[0].meta.uid)

    def _on_select_timer(self) -> None:
        """The response window closed: send the packet to the chosen receiver."""
        meta = self.queue[0].meta
        target = self.select_next_hop(meta, self.responses)
        routing = Routing(meta.source, meta.dest, self.id, target, meta.hop_count)
        self.send(routing, target, meta.uid)

    def _on_air(self, frame: Frame, target: int | None, uid: int | None, at: int) -> None:
        """One of this node's frames goes on the air at tick `at`.

        The response window and the ack wait run from that tick, so a frame
        that waited for the channel is given its full window.
        """
        t = frame.type
        if t is MessageType.SRC_BCAST:
            self._arm("select", at + self.params.response_wait_ms, ref=uid)
        elif t is MessageType.ROUTING:
            self.current_target = target
            self.phase = AWAIT_ACK
            self._arm("ack", at + self.params.ack_wait_ms, ref=uid)

    def _schedule_response(self, owner: int) -> None:
        """Queue a Response after the anti-collision jitter of whole slots."""
        p = self.params
        jitter = self.sim.engine.draw_uniform(self.id, p.response_slot_bound) * p.slot_ms
        # a Response is never cancelled, so its timer needs no token
        self.sim.engine.schedule(
            self.sim.engine.now + jitter, TimerFire(self.id, "respond", owner)
        )

    def _emit_response(self, owner: int) -> None:
        assert self.dst_rssi is not None
        self.send(Response(owner, self.id, self.dst_rssi), owner)

    # ---- retransmission -------------------------------------------------

    def beb_backoff(self) -> None:
        """Binary exponential backoff after a failed hop attempt.

        Increments the per-packet attempt counter; past max_tx_attempts the
        packet is dropped, otherwise the retry fires after a uniformly drawn
        number of slots in [0, 2^min(attempts, max_backoff_exponent)).
        """
        p = self.params
        pending = self.queue[0]
        pending.attempts += 1
        if pending.attempts > p.max_tx_attempts:
            self.sim.record_hop(
                pending.meta.uid,
                self.id,
                self.current_target if self.current_target is not None else self.destination,
                success=False,
                attempts=pending.attempts,
            )
            self.sim.drop(pending.meta.uid, "max_attempts")
            self._dequeue()
            self.phase = IDLE
            self.current_target = None
            self._on_free()
            return
        exponent = min(pending.attempts, p.max_backoff_exponent)
        delay = self.sim.engine.draw_uniform(self.id, 1 << exponent) * p.slot_ms
        self.phase = BACKOFF
        self._arm("backoff", self.sim.engine.now + delay, ref=pending.meta.uid)

    # ---- timers -----------------------------------------------------------

    def on_timer(self, tag: str, ref: int, token: int) -> None:
        if tag == "respond":
            self._emit_response(ref)  # ref is the owner of the RTS
        elif tag == "select":
            if self.phase == AWAIT_RESPONSES and self._is_live(tag, token):
                self._on_select_timer()
        elif tag == "ack":
            if self.phase == AWAIT_ACK and self._is_live(tag, token):
                self.beb_backoff()
        elif tag == "backoff":
            if self.phase == BACKOFF and self._is_live(tag, token):
                self._start_handshake()

    def _on_free(self) -> None:
        """The queue gained a packet or lost its head; BR waits for its epoch."""
