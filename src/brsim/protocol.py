"""Shared node machinery: the hop handshake, packet bookkeeping, ACK/BEB logic.

Both protocol variants drive the same four-step hop, and it is written once,
here: broadcast an RTS, collect Response frames for a fixed window, pick a
receiver, send the Routing frame and wait for its Ack. Each subclass supplies
only its policy:

- `listening`: whether a station that holds a destination reading answers an
  RTS right now (BR's per-epoch coin; the baseline always listens);
- `select_next_hop`: which responder receives the packet;
- `send`: when a frame reaches the air (BR transmits at once, the baseline
  contends with CSMA/CA). `send` then hands the frame and its on-air tick to
  `_on_air`, the one place where a node's frame goes on the air: it books
  the air time, arms the response window or the ack wait, and logs a data
  frame. An Ack skips `send` and goes on the air at once.

When a handshake starts is policy too: BR starts one at a transmit epoch
(`on_epoch`, which `_on_free` keeps due while the node holds a packet), the
baseline as soon as it is idle with data (`_on_free`).

Frames are immutable values, so a node builds each one it repeats once: its
RTS and its Ack at construction, and one Response per RTS owner, built again
only when the node's destination reading has changed since.

A node owns exactly one handshake at a time, for the head of its FIFO queue.
A running hop waits on one timer, the one `_arm` set last: the response
window (`select`), the ack wait (`ack`) or the retry backoff (`backoff`). Any
other hop timer still in flight (an ack wait that an Ack cut short) is stale
and does nothing.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .engine import TimerFire
from .frame import Ack, Frame, MessageType, Response, Routing, SrcBcast
from .metrics import RoutingRecord

if TYPE_CHECKING:
    from .simulation import Simulation

# the members as module constants: a global is cheaper to read than an enum attribute
_SRC_BCAST = MessageType.SRC_BCAST
_DST_BCAST = MessageType.DST_BCAST
_RESPONSE = MessageType.RESPONSE
_ROUTING = MessageType.ROUTING


@dataclass
class PacketMeta:
    """Simulation-level identity of one data packet as held by one node.

    uid never appears on the wire; hop_count mirrors the Routing field and
    counts completed handovers. attempts counts the failed transmission
    attempts of the current hop.
    """

    uid: int
    source: int
    hop_count: int = 0
    attempts: int = 0


class ResponseRecord(NamedTuple):
    responder: int
    dst_rssi: int
    link_rssi: int


class RadioNode:
    """Base station logic; subclasses supply the policy the module names."""

    listening = True

    def __init__(self, node_id: int, sim: "Simulation") -> None:
        self.id = node_id
        self.sim = sim
        self.params = sim.br_params
        self.destination = sim.topology.destination
        self.is_destination = node_id == self.destination
        # the destination reads its own beacon; every other station waits for one
        self.dst_rssi: int | None = (
            sim.link.rssi_of(node_id, node_id) if self.is_destination else None
        )
        self.queue: deque[PacketMeta] = deque()
        # True from the RTS for the queue head until that head leaves; an RTS
        # still waiting for the channel holds no timer yet
        self.in_hop = False
        self.responses: list[ResponseRecord] = []
        self.prior_forwarders: dict[int, set[int]] = defaultdict(set)
        self.current_target: int | None = None
        self._timer: TimerFire | None = None  # the one timer the running hop waits on
        self._seen: set[int] = set()  # uids ever held here, for duplicate rejection
        self._rts = SrcBcast(node_id)
        self._ack = Ack(node_id)
        self._response_to: dict[int, Response] = {}  # the last Response sent to each RTS owner

    # ---- timer plumbing -------------------------------------------------

    def _arm(self, tag: str, at: int, ref: int = 0) -> None:
        timer = self._timer = TimerFire(self.id, tag, ref)
        self.sim.engine.schedule(at, timer)

    # ---- frame entry point ----------------------------------------------

    def on_frame(self, frame: Frame, tx: int, uid: int | None, measured: int) -> None:
        t = frame.type  # the most frequent types first
        if t is _RESPONSE:
            self._collect_response(frame, measured)
        elif t is _SRC_BCAST:
            self.on_rts(tx)
        elif t is _DST_BCAST:
            self.on_dst_beacon(measured)
        elif t is _ROUTING:
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
        # each handshake starts a fresh list, so a late answer reaches no selection
        self.responses.append(ResponseRecord(frame.response_node_id, frame.dst_rssi, measured))

    def on_routing(self, frame: Routing, tx: int, uid: int | None) -> None:
        """Ack an addressed data frame, then deliver or requeue it.

        A packet this station already accepted is acked again but discarded:
        it is a retransmission whose earlier ack was lost, and taking it
        twice would fork phantom copies.
        """
        assert uid is not None, "routing frames always carry a uid"
        self._on_air(self._ack, tx, None, self.sim.engine.now)
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
        self.enqueue(PacketMeta(uid, frame.source_node_id, next_hop))

    def enqueue(self, meta: PacketMeta) -> None:
        self._seen.add(meta.uid)
        self.queue.append(meta)
        self.sim.packet_queued()
        self._on_free()

    def _on_ack(self, frame: Ack) -> None:
        awaiting_ack = self._timer is not None and self._timer.tag == "ack"
        if awaiting_ack and frame.response_node_id == self.current_target:
            self._end_hop(success=True)

    def _end_hop(self, success: bool) -> None:
        """The queue head leaves: acked, or dropped after its last failed attempt."""
        meta = self.queue.popleft()
        self.sim.packet_dequeued()
        # a hop that never chose a receiver was a shot at the destination
        to = self.destination if self.current_target is None else self.current_target
        self.sim.record_hop(meta.uid, self.id, to, success=success, attempts=meta.attempts + 1)
        if not success:
            self.sim.drop(meta.uid, "max_attempts")
        self.in_hop = False
        self.current_target = None
        self._timer = None
        self._on_free()

    # ---- the hop ------------------------------------------------------------

    def _start_handshake(self) -> None:
        """Broadcast an RTS for the queue head and collect the answers."""
        self.responses = []
        self.in_hop = True
        self.current_target = None
        self.send(self._rts, uid=self.queue[0].uid)

    def _on_select_timer(self) -> None:
        """The response window closed: send the packet to the chosen receiver."""
        meta = self.queue[0]
        target = self.current_target = self.select_next_hop(meta, self.responses)
        routing = Routing(meta.source, self.destination, self.id, target, meta.hop_count)
        self.send(routing, target, meta.uid)

    def _on_air(self, frame: Frame, target: int | None, uid: int | None, at: int) -> None:
        """Put one of this node's frames on the air at tick `at`.

        An addressed frame (`target` set) reaches its addressee or nobody.
        The response window and the ack wait run from the on-air tick, so a
        frame that waited for the channel is given its full window. A data
        frame is logged as it goes out.
        """
        self.sim.transmit_at(at, self.id, frame, target, uid)
        t = frame.type
        if t is _SRC_BCAST:
            self._arm("select", at + self.params.response_wait_ms, ref=uid)
        elif t is _ROUTING:
            self._arm("ack", at + self.params.ack_wait_ms, ref=uid)
            self.sim.metrics.routing_log.append(
                RoutingRecord(at, self.id, target, uid, frame.hop_count)
            )

    def _schedule_response(self, owner: int) -> None:
        """Queue a Response after the anti-collision jitter of whole slots."""
        p = self.params
        jitter = self.sim.engine.draw_uniform(self.id, p.response_slot_bound) * p.slot_ms
        # a Response is never cancelled: its timer is not armed, so it is never stale
        self.sim.engine.schedule(
            self.sim.engine.now + jitter, TimerFire(self.id, "respond", owner)
        )

    def _emit_response(self, owner: int) -> None:
        dst_rssi = self.dst_rssi
        assert dst_rssi is not None
        frame = self._response_to.get(owner)
        if frame is None or frame.dst_rssi != dst_rssi:
            frame = self._response_to[owner] = Response(owner, self.id, dst_rssi)
        self.send(frame, owner)

    # ---- retransmission -------------------------------------------------

    def beb_backoff(self) -> None:
        """Binary exponential backoff after a failed hop attempt.

        A packet whose hop already failed max_tx_attempts times is dropped.
        Otherwise its attempt counter rises and the retry fires after a
        uniformly drawn number of slots in [0, 2^min(attempts, max_backoff_exponent)).
        """
        p = self.params
        meta = self.queue[0]
        if meta.attempts >= p.max_tx_attempts:
            self._end_hop(success=False)
            return
        meta.attempts += 1
        exponent = min(meta.attempts, p.max_backoff_exponent)
        delay = self.sim.engine.draw_uniform(self.id, 1 << exponent) * p.slot_ms
        self._arm("backoff", self.sim.engine.now + delay, ref=meta.uid)

    # ---- timers -----------------------------------------------------------

    def on_timer(self, timer: TimerFire) -> None:
        tag = timer.tag
        if tag == "respond":
            self._emit_response(timer.ref)  # ref is the owner of the RTS
        elif timer is self._timer:
            if tag == "select":
                self._on_select_timer()
            elif tag == "ack":
                self.beb_backoff()
            else:  # the backoff ran out
                self._start_handshake()

    def _on_free(self) -> None:
        """The queue gained a packet or lost its head; BR keeps an epoch due."""
