"""Shared builders for simulator tests."""

from brsim.baseline import CsmaParams
from brsim.br_node import BrParams
from brsim.channel import ChannelParams, Position, Topology, WallSegment
from brsim.scenario import Scenario, TrafficSpec
from brsim.simulation import Simulation

NO_INTERFERENCE = -1000.0  # target SIR low enough that collisions never occur


def make_topology(positions, destination, walls=()):
    return Topology(
        {nid: Position(x, y) for nid, (x, y) in positions.items()},
        destination,
        [WallSegment(Position(x1, y1), Position(x2, y2), att) for x1, y1, x2, y2, att in walls],
    )


def make_scenario(
    positions,
    destination,
    *,
    sources=(),
    horizon_ms=300_000,
    walls=(),
    channel=None,
    br=None,
    csma=None,
    packets_per_source=1,
    inter_arrival_ms=60_000,
    start_ms=0,
    name="test",
    protocol="both",
):
    if not sources:
        sources = tuple(sorted(n for n in positions if n != destination))[:1]
    return Scenario(
        name=name,
        protocol=protocol,
        horizon_ms=horizon_ms,
        topology=make_topology(positions, destination, walls),
        channel=channel or ChannelParams(),
        br=br or BrParams(),
        csma=csma or CsmaParams(),
        traffic=TrafficSpec(
            sources=tuple(sources),
            packets_per_source=packets_per_source,
            inter_arrival_ms=inter_arrival_ms,
            start_ms=start_ms,
        ),
    )


def make_sim(positions, destination, protocol, seed=0, trace=None, **kwargs):
    return Simulation(
        make_scenario(positions, destination, **kwargs), protocol, seed, trace=trace
    )


def tandem_positions(count, length_m=14.0, width_m=2.05):
    gap = length_m / (count - 1)
    return {i: (i * gap, width_m / 2.0) for i in range(count)}
