"""Log-distance path loss channel with wall attenuation and SIR delivery.

Propagation is deterministic: no fading, no capture model beyond the SIR
threshold. RSSI values are rounded to whole dBm (half toward +inf) and are
symmetric for any node pair. Reception of data frames is gated twice: the
receiver must be within hearing range (sensitivity calibrated so the
wall-free reach equals the configured transmission range) and the SIR against
noise plus all concurrent transmitters must meet the target. Location beacons
skip the hearing-range gate and are decodable wherever the SIR alone passes,
which is what lets downstream nodes build a destination-RSSI gradient over
floors longer than the data range.
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


@dataclass
class Topology:
    """Static node placement, one destination, optional walls."""

    nodes: dict[int, Position]
    destination: int
    walls: list[WallSegment] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.destination not in self.nodes:
            raise ValueError(f"destination {self.destination} not among nodes")

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
    """Summed attenuation of every wall the tx->rx segment crosses."""
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


def can_hear(tx: int, rx: int, topology: Topology, params: ChannelParams) -> bool:
    """True when rx decodes data frames from tx on an otherwise quiet channel."""
    if tx == rx:
        return False
    r = rssi(topology.position(tx), topology.position(rx), topology, params)
    return r >= sensitivity_dbm(params)


def _linear_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def _sir_ok(tx: int, rx: int, concurrent: set[int] | frozenset[int], topology: Topology, params: ChannelParams) -> bool:
    rx_pos = topology.position(rx)
    signal = _linear_mw(rssi(topology.position(tx), rx_pos, topology, params))
    interference = _linear_mw(params.noise_floor_dbm)
    for other in sorted(concurrent):
        interference += _linear_mw(rssi(topology.position(other), rx_pos, topology, params))
    return signal / interference >= _linear_mw(params.target_sir_db)


def delivery_success(
    tx: int,
    rx: int,
    concurrent: set[int] | frozenset[int],
    topology: Topology,
    params: ChannelParams,
) -> bool:
    """Data-frame reception verdict: in hearing range and SIR at target or better.

    `concurrent` holds every other node transmitting in the same tick; tx must
    not be in it. Boundary ties (RSSI equal to sensitivity, SIR equal to
    target) count as success.
    """
    if tx in concurrent or rx == tx:
        raise ValueError("tx must differ from rx and not appear in concurrent")
    if not can_hear(tx, rx, topology, params):
        return False
    return _sir_ok(tx, rx, concurrent, topology, params)


def beacon_success(
    tx: int,
    rx: int,
    concurrent: set[int] | frozenset[int],
    topology: Topology,
    params: ChannelParams,
) -> bool:
    """Beacon reception verdict: SIR alone, no hearing-range gate."""
    if tx in concurrent or rx == tx:
        raise ValueError("tx must differ from rx and not appear in concurrent")
    return _sir_ok(tx, rx, concurrent, topology, params)


class LinkCache:
    """Per-pair link table for one static topology.

    Reproduces rssi / can_hear / delivery_success / beacon_success exactly,
    including rounding and boundary-tie behaviour, but computes each node pair
    at most once. The simulator adjudicates every frame arrival through this,
    so the geometry work must not be repeated per arrival.
    """

    def __init__(self, topology: Topology, params: ChannelParams) -> None:
        self.topology = topology
        self.params = params
        self.sensitivity = sensitivity_dbm(params)
        self._rssi: dict[tuple[int, int], int] = {}
        self._mw: dict[tuple[int, int], float] = {}
        self._noise_mw = _linear_mw(params.noise_floor_dbm)
        self._sir_lin = _linear_mw(params.target_sir_db)

    def rssi_of(self, tx: int, rx: int) -> int:
        key = (tx, rx)
        value = self._rssi.get(key)
        if value is None:
            value = rssi(
                self.topology.position(tx),
                self.topology.position(rx),
                self.topology,
                self.params,
            )
            self._rssi[key] = value
            self._mw[key] = _linear_mw(value)
        return value

    def _power_mw(self, tx: int, rx: int) -> float:
        key = (tx, rx)
        if key not in self._mw:
            self.rssi_of(tx, rx)
        return self._mw[key]

    def can_hear(self, tx: int, rx: int) -> bool:
        if tx == rx:
            return False
        return self.rssi_of(tx, rx) >= self.sensitivity

    def beacon_audible(self, tx: int, rx: int) -> bool:
        """Beacon reach on a quiet channel: SIR against the noise floor alone."""
        if tx == rx:
            return False
        return self._power_mw(tx, rx) / self._noise_mw >= self._sir_lin

    def _sir_ok(self, tx: int, rx: int, concurrent: set[int] | frozenset[int]) -> bool:
        interference = self._noise_mw
        for other in sorted(concurrent):
            interference += self._power_mw(other, rx)
        return self._power_mw(tx, rx) / interference >= self._sir_lin

    def delivery(self, tx: int, rx: int, concurrent: set[int] | frozenset[int]) -> bool:
        if not self.can_hear(tx, rx):
            return False
        return self._sir_ok(tx, rx, concurrent)

    def beacon(self, tx: int, rx: int, concurrent: set[int] | frozenset[int]) -> bool:
        if tx == rx:
            return False
        return self._sir_ok(tx, rx, concurrent)
