"""World model: radios on a shared channel driven by the event engine.

Time is integer milliseconds and a transmission occupies exactly one tick.
Every frame sent at tick t arrives at tick t+1; all frames sent in the same
tick are mutually concurrent.

Range is applied once, when a frame goes on the air: its receivers are the
stations that could decode it on a quiet channel (interference can only
remove receptions, never add them), in ascending id from the link table: a
data frame's hearers, its addressee if that one hears it, or the
destination beacon's reach. An untraced run also leaves out beacon
receivers that already hold a destination reading; see Simulation.run. At
arrival, one event per frame, a receiver that was transmitting at t hears
nothing (half duplex) and every other one is judged by SIR alone against
the tick's other senders, sorted into ascending id once per arrival; every
verdict sums their interference in that order.

The nodes keep their own timing (a BrNode schedules its decision epochs)
and log the data frames they put on the air (RadioNode._on_air); the
radio here only books air time and picks receivers.
Each packet's outcome is written as it happens: generating the packet opens
it as unresolved at the horizon, and `deliver` and `drop` overwrite that.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from contextlib import nullcontext
from typing import TextIO

from .baseline import AodvNode
from .br_node import BrNode
from .channel import LinkCache
from .engine import (
    BeaconTick,
    DecisionEpoch,
    Engine,
    Event,
    FrameArrival,
    TimerFire,
)
from .frame import DstBcast, Frame, MessageType
from .metrics import HopRecord, Outcome, RunMetrics
from .protocol import PacketMeta, RadioNode

_NODE_CLASSES = {"br": BrNode, "aodv": AodvNode}

_DST_BCAST = MessageType.DST_BCAST  # a global is cheaper to read than an enum attribute

# The link table run last, kept with the (topology, channel) pair it is built
# from. Runs whose pair is equal by value share it (pooled copies, --p sheets,
# seeds); no run changes it. One slot holds one table, not one per size.
_last_link: tuple[tuple, LinkCache] | None = None


def _link_table(scenario) -> LinkCache:
    global _last_link
    key = (scenario.topology, scenario.channel)
    if _last_link is None or _last_link[0] != key:  # tuple == tries `is` first
        _last_link = (key, LinkCache(*key))
    return _last_link[1]


class Simulation:
    """One protocol, one scenario, one seed."""

    def __init__(self, scenario, protocol: str, seed: int, trace: TextIO | None = None) -> None:
        if protocol not in _NODE_CLASSES:
            raise ValueError(f"unknown protocol: {protocol!r}")
        self.scenario = scenario
        self.protocol = protocol
        self.topology = scenario.topology
        self.br_params = scenario.br
        self.csma_params = scenario.csma
        self.link = _link_table(scenario)
        self.engine = Engine(seed, trace)
        self.metrics = RunMetrics(protocol, len(self.topology.nodes), seed)
        # first at tick 0: the nodes built next schedule their own events after it
        self.engine.schedule(0, BeaconTick(self.topology.destination))
        self._beacon_frame = DstBcast(self.topology.destination)
        cls = _NODE_CLASSES[protocol]
        self.nodes: dict[int, RadioNode] = {
            nid: cls(nid, self) for nid in sorted(self.topology.nodes)
        }
        self._tx: dict[int, set[int]] = {}
        # quiescence: traffic arrivals still due within the horizon, packets
        # held in node queues, and whether this is an untraced run(), which
        # stops once both are zero and skips repeat beacon arrivals
        self._traffic_due = 0
        self._held = 0
        self._stop_when_idle = False
        t = scenario.traffic
        for src in t.sources:
            for k in range(t.packets_per_source):
                at = t.start_ms + k * t.inter_arrival_ms
                if at > scenario.horizon_ms:
                    break  # it would never fire, and the later ones neither
                self.engine.schedule(at, TimerFire(src, "traffic", k))
                self._traffic_due += 1

    # ---- radio ------------------------------------------------------------

    def transmit(self) -> None:
        """Put the destination's beacon on the air at once; nodes use `_on_air`."""
        self.transmit_at(self.engine.now, self.topology.destination, self._beacon_frame)

    def transmit_at(
        self,
        at: int,
        tx: int,
        frame: Frame,
        only_to: int | None = None,
        uid: int | None = None,
    ) -> None:
        """Book `tx`'s air time at tick `at` and schedule the frame's arrival.

        Only the destination beacons: a `DstBcast` from any other station
        raises ValueError.
        """
        if only_to is not None:
            rxs = (only_to,) if self.link.can_hear(tx, only_to) else ()
        elif frame.type is not _DST_BCAST:
            rxs = self.link.hearers[tx]
        elif tx != self.topology.destination:
            raise ValueError(f"station {tx} is not the destination: only the destination beacons")
        elif self._stop_when_idle:
            # the channel is static, so a station that holds a reading would
            # only be told the same rssi_of(tx, rx) again
            nodes = self.nodes
            rxs = tuple(rx for rx in self.link.beacon_hearers if nodes[rx].dst_rssi is None)
        else:
            rxs = self.link.beacon_hearers
        booked = self._tx
        reg = booked.get(at)
        if reg is None:
            # CCA reads tick now and adjudication reads now - 1: drop older ticks
            oldest = self.engine.now - 1
            for t in [t for t in booked if t < oldest]:
                del booked[t]
            reg = booked[at] = set()
        reg.add(tx)
        if rxs:
            self.engine.schedule(at + 1, FrameArrival(rxs, frame, tx, uid))

    def channel_busy(self, me: int) -> bool:
        """Clear-channel assessment: an audible station is transmitting now."""
        reg = self._tx.get(self.engine.now)
        if not reg:
            return False
        return any(o != me and self.link.can_hear(o, me) for o in reg)

    # ---- event dispatch -----------------------------------------------------

    def _handle(self, ev: Event) -> None:
        _DISPATCH[type(ev)](self, ev)

    def _generate_packet(self, src: int) -> None:
        self._traffic_due -= 1
        uid = self.metrics.generated
        self.metrics.generated += 1
        self.metrics.outcomes[uid] = Outcome(
            uid, src, False, None, "horizon", self.scenario.horizon_ms
        )
        self.nodes[src].enqueue(PacketMeta(uid, src))

    # ---- bookkeeping called by nodes ------------------------------------------

    def packet_queued(self) -> None:
        self._held += 1

    def packet_dequeued(self) -> None:
        self._held -= 1
        self._stop_if_idle()

    def deliver(self, uid: int, hops: int) -> None:
        outcomes = self.metrics.outcomes
        if not outcomes[uid].delivered:  # the first delivery, even after a drop
            outcomes[uid] = Outcome(uid, outcomes[uid].source, True, hops, None, self.engine.now)

    def drop(self, uid: int, reason: str) -> None:
        outcomes = self.metrics.outcomes
        if outcomes[uid].reason == "horizon":  # neither dropped nor delivered yet
            source = outcomes[uid].source
            outcomes[uid] = Outcome(uid, source, False, None, reason, self.engine.now)

    def record_hop(
        self, uid: int, sender: int, receiver: int, *, success: bool, attempts: int
    ) -> None:
        self.metrics.hops.append(
            HopRecord(
                uid,
                sender,
                receiver,
                self.engine.now,
                self.topology.distance(sender, receiver),
                success,
                attempts,
            )
        )

    # ---- lifecycle ---------------------------------------------------------

    def run(self) -> RunMetrics:
        """Run to the horizon; when untraced, skip events that change nothing.

        An untraced run leaves out two kinds of event that cannot change
        generated, outcomes, hops or routing_log. A traced run keeps every
        event, because its trace records them.

        - Quiescence: once every traffic arrival due within the horizon has
          fired and no node holds a packet, only beacons remain (a br
          station runs epochs only while it holds a packet), so the run
          stops there.
        - Repeat beacon arrivals: the channel is static, so a station that
          already holds a destination reading would store the same value
          again. The beacon still occupies the channel, so collisions and
          carrier sense are unchanged.

        Outcomes are written as they happen, so nothing is left to assign
        once the event loop returns.

        The nodes stay readable in `nodes` afterwards, but no longer point
        back at the simulation, so a finished run is freed by reference
        counting alone instead of waiting for a cyclic garbage collection.
        """
        self._stop_when_idle = self.engine.trace is None
        self._stop_if_idle()
        self.engine.run_until(self.scenario.horizon_ms, self._handle)
        for node in self.nodes.values():
            node.sim = None
        return self.metrics

    def _stop_if_idle(self) -> None:
        if self._stop_when_idle and not self._held and not self._traffic_due:
            self.engine.stop()


# One handler per event type, as plain functions: a table of bound methods
# held on the instance would tie every Simulation into a reference cycle.


def _on_arrival(sim: Simulation, ev: FrameArrival) -> None:
    """Adjudicate a frame at its receivers in ascending id, back to back.

    One that sent in the frame's tick hears nothing (half duplex); every
    other one decodes it if its SIR passes. No burst of two or more stops
    the run: only an Ack ends a hop (`_end_hop` -> `packet_dequeued` ->
    `Engine.stop`), Acks, Responses and Routing frames are addressed, and
    neither an RTS nor a beacon dequeues. What a handler schedules sorts
    after every event already scheduled.
    """
    frame, tx, link = ev.frame, ev.tx, sim.link
    sent = sim._tx[sim.engine.now - 1]  # the frame's tick, never pruned yet
    # the other senders in ascending id, the order every verdict sums them in
    concurrent = tuple(sorted(sent - {tx})) if len(sent) > 1 else ()
    delivery = link.delivery
    for rx in ev.rxs:
        if rx not in sent and delivery(tx, rx, concurrent):
            sim.nodes[rx].on_frame(frame, tx, ev.uid, link.rssi_of(tx, rx))


def _on_timer(sim: Simulation, ev: TimerFire) -> None:
    if ev.tag == "traffic":
        sim._generate_packet(ev.node)
    else:
        sim.nodes[ev.node].on_timer(ev)


def _on_epoch(sim: Simulation, ev: DecisionEpoch) -> None:
    sim.nodes[ev.node].on_epoch()


def _on_beacon(sim: Simulation, ev: BeaconTick) -> None:
    sim.transmit()
    sim.engine.schedule(sim.engine.now + sim.br_params.bcast_ms, ev)  # the same event again


_DISPATCH = {
    FrameArrival: _on_arrival,
    TimerFire: _on_timer,
    DecisionEpoch: _on_epoch,
    BeaconTick: _on_beacon,
}


def run_scenario(scenario, protocol: str, seed: int, trace_path: str | None = None) -> RunMetrics:
    """Build and run one simulation, writing its trace to `trace_path` if given.

    Module-level so workers can import it: a pooled run writes its own file.
    """
    with open(trace_path, "w", encoding="utf-8") if trace_path else nullcontext() as trace:
        return Simulation(scenario, protocol, seed, trace=trace).run()


# Pooled jobs in flight per worker. While the job at the head of the window
# runs, the other workers only have the rest of the window to work on, so a
# small window idles them behind a slow head. Replaying recorded job times
# of a tandem12 node sweep (5..15, 10 seeds, both protocols), two per worker
# give a makespan 4% above submitting every job at once with 8 workers and
# 14% with 16; three lose nothing on that or two other sweeps, and four
# keep a margin.
_JOBS_PER_WORKER = 4


def run_many(jobs: list[tuple], max_workers: int = 1) -> Iterator[RunMetrics]:
    """Run (scenario, protocol, seed, trace_path) jobs, yielding results in job order.

    Results are identical regardless of worker count: every run is seeded
    independently and shares no mutable state. Serially, a job runs only when
    its result is asked for. A pool starts at most one worker per job and
    looks ahead a bounded window: it submits one job at a time and keeps at
    most four per worker in flight, so it never holds more untaken results
    than that. A failed run raises its own exception, so a caller that
    counts the results it has taken knows which job failed; no job past the
    window has started, and those still waiting in it are cancelled.
    """
    workers = min(max_workers, len(jobs))
    if workers <= 1:
        for job in jobs:
            yield run_scenario(*job)
        return
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    window: deque = deque()
    try:
        for job in jobs:
            if len(window) == _JOBS_PER_WORKER * workers:
                yield window.popleft().result()
            window.append(pool.submit(run_scenario, *job))
        while window:
            yield window.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
