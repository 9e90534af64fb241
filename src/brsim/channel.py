"""Log-distance path loss channel with wall attenuation and SIR delivery.

Propagation is deterministic: no fading, no capture model beyond the SIR
threshold. RSSI values are rounded to whole dBm (half toward +inf) and are
symmetric for any node pair. Range is applied once, when a frame goes on
the air: data frames reach the stations within hearing range (sensitivity
calibrated so the wall-free reach equals the configured transmission range),
and the destination's beacon every station whose SIR against noise alone
meets the target, so stations build a destination-RSSI gradient over floors
longer than the data range. SIR against noise plus all concurrent
transmitters is applied once, at arrival.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Position:
    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class WallSegment:
    """A straight obstruction; crossing it costs `attenuation_db`."""

    a: Position
    b: Position
    attenuation_db: float = 20.0

    def __post_init__(self) -> None:
        if self.attenuation_db < 0:  # a wall never amplifies
            raise ValueError("attenuation_db must be non-negative")


@dataclass(frozen=True)
class ChannelParams:
    tx_power_dbm: float = 0.0
    ref_distance_m: float = 1.0
    ref_loss_db: float = 40.0
    path_loss_exponent: float = 3.0
    noise_floor_dbm: float = -95.0
    target_sir_db: float = 10.0
    tx_range_m: float = 30.0

    def __post_init__(self) -> None:
        for name in ("ref_distance_m", "tx_range_m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.path_loss_exponent < 0:  # loss never falls with distance
            raise ValueError("path_loss_exponent must be non-negative")
        # LinkCache keeps each level as a linear power and divides every SIR by
        # the noise floor's; with no negative loss anywhere, its strongest link
        # is one at the reference distance
        if _overflows(self.noise_floor_dbm) or _linear_mw(self.noise_floor_dbm) == 0.0:
            raise ValueError("noise_floor_dbm out of range: its linear power is not a positive float")
        if _overflows(self.target_sir_db):
            raise ValueError("target_sir_db too high: its linear power overflows a float")
        strongest = self.tx_power_dbm - self.ref_loss_db
        if math.isinf(strongest) or _overflows(_round_dbm(strongest)):
            raise ValueError(
                "tx_power_dbm too high: the linear power of a link at the reference"
                " distance overflows a float"
            )
        # sensitivity_dbm rounds this to the whole dBm that every range gate compares with
        if not math.isfinite(self.tx_power_dbm - path_loss(self.tx_range_m, self)):
            raise ValueError(
                "tx_range_m too far for this path loss: its sensitivity is not a finite dBm value"
            )


@dataclass
class Topology:
    """Static node placement, one destination, optional walls."""

    nodes: dict[int, Position]
    destination: int
    walls: list[WallSegment] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.destination not in self.nodes:
            raise ValueError(f"destination {self.destination} not among nodes")
        # no pairwise distance may overflow: none exceeds the bounding box's diagonal
        # d; with walls the box takes in their ends, and each `_orient` of the
        # crossing test, a difference of two products, stays within 2·d²
        points = [*self.nodes.values(), *(end for w in self.walls for end in (w.a, w.b))]
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        d = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
        if not self.walls:
            if math.isinf(d):
                raise ValueError("node positions too far apart: their distances overflow a float")
        elif math.isinf(2 * d * d):
            raise ValueError(
                "stations and wall ends too far apart: the wall-crossing test overflows a float"
            )

    def position(self, node_id: int) -> Position:
        return self.nodes[node_id]

    def distance(self, a: int, b: int) -> float:
        return self.nodes[a].distance_to(self.nodes[b])


def _round_dbm(x: float) -> int:
    # nearest whole dBm, half rounds toward +inf
    return math.floor(x + 0.5)


def _orient(o: Position, a: Position, b: Position) -> float:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def segments_intersect(p1: Position, p2: Position, q1: Position, q2: Position) -> bool:
    """Proper crossing test; collinear overlap and endpoint touches count too."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True

    def on_segment(a: Position, b: Position, p: Position) -> bool:
        return (
            min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y)
        )

    if d1 == 0 and on_segment(q1, q2, p1):
        return True
    if d2 == 0 and on_segment(q1, q2, p2):
        return True
    if d3 == 0 and on_segment(p1, p2, q1):
        return True
    if d4 == 0 and on_segment(p1, p2, q2):
        return True
    return False


def wall_attenuation_db(tx: Position, rx: Position, walls: list[WallSegment]) -> float:
    """Summed attenuation of every wall the segment crosses, the same both ways."""
    if (rx.x, rx.y) < (tx.x, tx.y):  # the touch tests' float signs depend on the order
        tx, rx = rx, tx
    total = 0.0
    for wall in walls:
        if segments_intersect(tx, rx, wall.a, wall.b):
            total += wall.attenuation_db
    return total


def path_loss(distance_m: float, params: ChannelParams) -> float:
    """Log-distance loss in dB; distances inside ref_distance clamp to ref_loss."""
    d = max(distance_m, params.ref_distance_m)
    return params.ref_loss_db + 10.0 * params.path_loss_exponent * math.log10(
        d / params.ref_distance_m
    )


def rssi(tx: Position, rx: Position, topology: Topology, params: ChannelParams) -> int:
    """Received power in whole dBm for a transmission from tx heard at rx."""
    loss = path_loss(tx.distance_to(rx), params)
    loss += wall_attenuation_db(tx, rx, topology.walls)
    return _round_dbm(params.tx_power_dbm - loss)


def sensitivity_dbm(params: ChannelParams) -> int:
    """Reception threshold for data frames: the RSSI at exactly tx_range, no walls."""
    return _round_dbm(params.tx_power_dbm - path_loss(params.tx_range_m, params))


def _linear_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def _overflows(dbm: float) -> bool:
    try:
        return math.isinf(_linear_mw(dbm))
    except OverflowError:
        return True


class LinkCache:
    """The link table of one static topology and channel.

    No run changes it, and equal topology and channel build equal tables,
    so a run reuses the table of the run before it when their (topology,
    channel) pairs are equal by value: the seeds, the pooled copies and the
    `--p` sheets of one floor share one table.

    RSSI is symmetric, so each unordered pair is computed once into one row
    set, `_rssi[a][b] is _rssi[b][a]` in whole dBm, the diagonal included
    (the destination's reading of its own beacon). Rows share one int per
    dBm level, and `_level_mw` holds each level's linear power once.
    `hearers` lists, in ascending rx id, the receivers that decode each
    transmitter's data frames. Only the destination beacons, so
    `beacon_hearers` is one tuple: the stations that decode its beacon on a
    quiet channel, in ascending id. The simulator picks a frame's receivers
    from these by range when it goes on the air, and `delivery` judges each
    arrival by SIR alone. Boundary ties (RSSI equal to sensitivity, SIR
    equal to target) count as success.
    """

    def __init__(self, topology: Topology, params: ChannelParams) -> None:
        self.sensitivity = sensitivity_dbm(params)
        self._noise_mw = _linear_mw(params.noise_floor_dbm)
        self._sir_lin = _linear_mw(params.target_sir_db)
        pos = topology.nodes
        ids = sorted(pos)
        rows: dict[int, dict[int, int]] = {a: {} for a in ids}
        levels: dict[int, int] = {}  # each level's one int object
        for i, a in enumerate(ids):
            row, at = rows[a], pos[a]
            for b in ids[i:]:  # a <= b; rows fill in ascending id
                level = rssi(at, pos[b], topology, params)
                row[b] = rows[b][a] = levels.setdefault(level, level)
        self._rssi = rows
        self._level_mw = mw = {level: _linear_mw(level) for level in levels}
        self.hearers: dict[int, tuple[int, ...]] = {
            tx: tuple(rx for rx, v in row.items() if rx != tx and v >= self.sensitivity)
            for tx, row in rows.items()
        }
        dst, noise, target = topology.destination, self._noise_mw, self._sir_lin
        self.beacon_hearers: tuple[int, ...] = tuple(
            rx for rx, v in rows[dst].items() if rx != dst and mw[v] / noise >= target
        )

    def rssi_of(self, tx: int, rx: int) -> int:
        return self._rssi[tx][rx]

    def can_hear(self, tx: int, rx: int) -> bool:
        """True when rx decodes data frames from tx on an otherwise quiet channel."""
        return tx != rx and self._rssi[tx][rx] >= self.sensitivity

    def beacon_audible(self, tx: int, rx: int) -> bool:
        """Beacon reach on a quiet channel: SIR against the noise floor alone."""
        return tx != rx and self._level_mw[self._rssi[tx][rx]] / self._noise_mw >= self._sir_lin

    def delivery(self, tx: int, rx: int, concurrent: tuple[int, ...]) -> bool:
        """The verdict on one arrival: SIR at target or better at rx.

        Interference is the noise plus each sender in `concurrent` (the
        tick's other senders, ascending id), summed in that order. Range was
        applied when rx was picked as a receiver.
        """
        row = self._rssi[rx]  # by symmetry, every sender's RSSI at rx
        mw = self._level_mw
        interference = self._noise_mw
        for other in concurrent:
            interference += mw[row[other]]
        return mw[row[tx]] / interference >= self._sir_lin

    # a beacon arrival takes the same verdict; the name stays for perfbench's tracer
    beacon = delivery
