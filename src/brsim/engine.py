"""Deterministic discrete-event core: millisecond clock, FIFO-stable heap, RNG.

Time is an unsigned integer count of simulated milliseconds. Events pop in
(time, seq) order, where seq is the global schedule order, so same-tick
events process in the order they were scheduled. Scheduling into the past
raises PastEventError.

Randomness comes from per-node xorshift64* streams so one node's draws never
perturb another's. The generator is fully specified by its update equations
(64-bit wrapping arithmetic):

    x ^= x >> 12
    x ^= (x << 25) mod 2**64
    x ^= x >> 27
    output = (x * 0x2545F4914F6CDD1D) mod 2**64

Stream seeds are derived from (run_seed, node_id) with two rounds of
splitmix64:

    z = (z + 0x9E3779B97F4A7C15) mod 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    output = z ^ (z >> 31)

A br station's listen coin is no stream draw: the coin of station i in
epoch k (k = -1 before its first epoch, which runs until its offset) is

    key_i = derive_stream_seed(run_seed ^ COIN_DOMAIN, i)
    listen = splitmix64(key_i ^ (k mod 2**64)) mod 2**53 < round(p * 2**53)

with splitmix64 the one round above and COIN_DOMAIN = 0x425220636F696E73
(the ASCII bytes of "BR coins"). A coin is a pure function of (run seed,
station, epoch), so any epoch's coin is known without running the epochs
before it.

Both recurrences are implementation-language independent; any runtime with
64-bit integers reproduces the same draws.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, TextIO

from .frame import Frame, MessageType

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK53 = (1 << 53) - 1
MAX_BOUND = 1 << 64  # the largest bound randbelow takes: one 64-bit draw covers it


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_stream_seed(run_seed: int, node_id: int) -> int:
    """Seed for one node's stream; never zero (xorshift fixed point)."""
    mixed = _splitmix64(run_seed & _MASK64)
    mixed = _splitmix64(mixed ^ ((node_id + 1) * 0x9E3779B97F4A7C15 & _MASK64))
    return mixed or 0x9E3779B97F4A7C15


COIN_DOMAIN = 0x425220636F696E73  # b"BR coins": keys the epoch coins apart from the streams


def coin_key(run_seed: int, node_id: int) -> int:
    """The key of one station's epoch coins; see the module docstring."""
    return derive_stream_seed(run_seed ^ COIN_DOMAIN, node_id)


def epoch_coin(key: int, epoch: int, threshold: int) -> bool:
    """The coin of one epoch: True (listen) on a 2**53 grid below threshold.

    threshold is round(p * 2**53), so p = 0 never listens and p = 1 always does.
    """
    return _splitmix64(key ^ (epoch & _MASK64)) & _MASK53 < threshold


class RngStream:
    """xorshift64* stream; see module docstring for the update equations."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        if seed == 0:
            raise ValueError("xorshift64* state must be nonzero")
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound), rejection-sampled (no modulo bias).

        A power-of-two bound divides 2**64, so its rejection loop never
        rejects and the result is the draw's low bits: one mask, same draw.
        """
        if not 0 < bound <= MAX_BOUND:
            raise ValueError(f"bound must lie in 1..2**64, got {bound}")
        if not bound & (bound - 1):
            return self.next_u64() & (bound - 1)
        limit = (2**64 // bound) * bound
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound

    def bernoulli(self, p: float) -> bool:
        """True with probability p on a 2**53 grid; exact at p=0 and p=1.

        One draw, the same one as randbelow(2**53) < round(p * 2**53):
        2**64 is a multiple of 2**53, so that rejection loop never rejects
        and its result is the low 53 bits of the draw.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of range: {p}")
        return self.next_u64() & _MASK53 < round(p * (1 << 53))


@dataclass(slots=True)
class FrameArrival:
    """A frame reaching its receivers (rxs, ascending id), each judged on processing.

    uid tags Routing frames with the simulation-level packet identity. It is
    never serialized.
    """

    rxs: tuple[int, ...]
    frame: Frame
    tx: int
    uid: int | None = None


@dataclass(slots=True)
class TimerFire:
    """A node's timer; the node tells a live hop timer from a stale one by identity."""

    node: int
    tag: str
    ref: int = 0


@dataclass(slots=True)
class DecisionEpoch:
    node: int


@dataclass(slots=True)
class BeaconTick:
    node: int


Event = FrameArrival | TimerFire | DecisionEpoch | BeaconTick


# Trace lines, "time<TAB>kind<TAB>node<TAB>detail": one per event, and one per
# receiver for a frame. Each event type has one builder, which returns the
# event's finished lines; frame names come from this table, not from the
# enum's `name` property on every line.
_FRAME_NAMES = {t: t.name for t in MessageType}


def _arrival_lines(time: int, ev: FrameArrival) -> list[str]:
    head = f"{time}\tarrive\t"
    tail = f"\t{_FRAME_NAMES[ev.frame.type]}<-{ev.tx}"
    return [f"{head}{rx}{tail}" for rx in ev.rxs]


def _timer_lines(time: int, ev: TimerFire) -> tuple[str]:
    return (f"{time}\ttimer\t{ev.node}\t{ev.tag}:{ev.ref}",)


def _epoch_lines(time: int, ev: DecisionEpoch) -> tuple[str]:
    return (f"{time}\tepoch\t{ev.node}\t-",)


def _beacon_lines(time: int, ev: BeaconTick) -> tuple[str]:
    return (f"{time}\tbeacon\t{ev.node}\t-",)


TRACE_LINES = {
    FrameArrival: _arrival_lines,
    TimerFire: _timer_lines,
    DecisionEpoch: _epoch_lines,
    BeaconTick: _beacon_lines,
}

# Trace lines joined into one string per write: a write per event adds about
# 18 % CPU to a traced run, and one string per run grows with the horizon.
_TRACE_CHUNK = 1024


class _Streams(dict):
    """The run's RngStream of each node, made on first use: one lookup per draw."""

    def __init__(self, run_seed: int) -> None:
        super().__init__()
        self.run_seed = run_seed

    def __missing__(self, node_id: int) -> RngStream:
        stream = self[node_id] = RngStream(derive_stream_seed(self.run_seed, node_id))
        return stream


class PastEventError(Exception):
    pass


class Engine:
    """Event loop plus the per-node RNG streams for one run."""

    def __init__(self, run_seed: int, trace: TextIO | None = None) -> None:
        self.run_seed = run_seed
        self.trace = trace
        self.now = 0
        self.processed = 0
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0
        self._streams = _Streams(run_seed)

    def schedule(self, time: int, event: Event) -> None:
        """Push an event; it sorts after every event already pushed for the same time."""
        if time < self.now:
            raise PastEventError(f"cannot schedule at {time}, current time is {self.now}")
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (time, seq, event))

    def pending(self) -> int:
        return len(self._heap)

    def pending_events(self) -> list[tuple[int, Event]]:
        """(time, event) for every pending event, in the order they will run."""
        return [(entry[0], entry[-1]) for entry in sorted(self._heap)]

    def run_until(self, horizon: int, handler: Callable[[Event], None]) -> int:
        """Process events with time <= horizon in (time, seq) order.

        Returns the number processed. On return, now == horizon. Every event
        processed, the one whose handler raised too, is on the trace stream.
        """
        start = self.processed
        heap, pop, out, trace = self._heap, heapq.heappop, self.trace, []
        try:
            while heap and heap[0][0] <= horizon:
                time, _, event = pop(heap)
                assert time >= self.now, "event popped out of order"
                self.now = time
                self.processed += 1
                if out is not None:
                    trace += TRACE_LINES[type(event)](time, event)
                    if len(trace) >= _TRACE_CHUNK:
                        out.write("\n".join(trace) + "\n")
                        trace.clear()
                handler(event)
        finally:
            if trace:
                out.write("\n".join(trace) + "\n")
        self.now = horizon
        return self.processed - start

    def stop(self) -> None:
        """Drop every pending event, so that run_until returns early.

        Meant to be called from a handler: the loop finds the heap empty
        once the events that handler goes on to schedule have run, and
        run_until still ends with now == horizon. The loop itself pays
        nothing per event for this.
        """
        self._heap.clear()

    def draw_uniform(self, node_id: int, bound: int) -> int:
        return self._streams[node_id].randbelow(bound)

    def bernoulli(self, node_id: int, p: float) -> bool:
        # no simulator code draws a coin from a stream; perfbench's tracer wraps this name
        return self._streams[node_id].bernoulli(p)
