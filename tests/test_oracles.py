"""Statistical oracles: tiny floors whose `br` behaviour the model fixes.

The golden digests pin the code to itself; these tests pin it to the model.
Every gate below is derived from the protocol's rules before running, and
each measured mean must lie within 4 standard errors of its model value. A
miss is a finding about the code or the model, never a bound to widen.

With E = epoch_ms, W = response_wait_ms and p the relay probability, a
station that takes a packet waits for its first grid epoch (uniform over
0..E-1 ms), then for a geometric number of epochs until its coin says
transmit (mean E*p/(1-p)), then sends an RTS, closes the response window
W ms later and puts the data frame on the air, which arrives one tick on.
"""

import math
import statistics

import pytest

from brsim.br_node import BrParams
from brsim.channel import ChannelParams
from brsim.protocol import PacketMeta
from brsim.simulation import Simulation, run_scenario

from conftest import NO_INTERFERENCE, make_scenario

P_VALUES = (0.3, 0.73)
START_MS = 20_000
HORIZON_MS = 2_000_000  # untraced runs stop once their one packet is delivered


def _one_hop_mean(params: BrParams) -> float:
    """Mean delay of one hop: (E - 1)/2 + E*p/(1 - p) + W, plus the air tick."""
    e, p = params.epoch_ms, params.relay_probability
    return (e - 1) / 2 + e * p / (1 - p) + params.response_wait_ms + 1


def _delays(scenario, seeds) -> list[int]:
    delays = []
    for seed in seeds:
        [outcome] = run_scenario(scenario, "br", seed).outcomes.values()
        assert outcome.delivered, f"seed {seed}: {outcome}"
        delays.append(outcome.time_ms - START_MS)
    return delays


def _within_4_se(values, model) -> tuple[bool, str]:
    mean = statistics.fmean(values)
    se = statistics.stdev(values) / math.sqrt(len(values))
    detail = f"mean {mean:.1f} ms vs model {model:.1f} ms ({(mean - model) / se:+.2f} se)"
    return abs(mean - model) < 4 * se, detail


@pytest.mark.parametrize("p", P_VALUES)
def test_one_hop_delay_matches_the_model(p):
    """A source 3 m from the destination: the destination always answers."""
    params = BrParams(relay_probability=p)
    scenario = make_scenario(
        {0: (0.0, 0.0), 1: (3.0, 0.0)},
        1,
        sources=(0,),
        start_ms=START_MS,
        horizon_ms=HORIZON_MS,
        br=params,
    )
    delays = _delays(scenario, range(3000))
    ok, detail = _within_4_se(delays, _one_hop_mean(params))
    assert ok, detail
    # the least delay the rules allow: an epoch at the packet's own tick
    # whose coin says transmit, then the response window and one air tick
    assert min(delays) >= params.response_wait_ms + 1


@pytest.mark.parametrize("p", P_VALUES)
def test_two_hop_delay_is_the_sum_of_the_hops(p):
    """Source, relay and destination 5 m apart, 6 m data range, no collisions.

    Each hop costs one one-hop term. The relay answers an RTS only while
    its coin says listen, so the source's attempt fails with probability
    1 - p: it shoots at the unreachable destination, waits out the ack wait
    and retries after a backoff of uniform{0..2**min(k, 5) - 1} slots at
    its k-th failure. Attempts lie more than one epoch apart, so each finds
    a fresh relay coin. The attempt cap is raised so that no packet drops.
    """
    params = BrParams(relay_probability=p, max_tx_attempts=80)
    scenario = make_scenario(
        {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (10.0, 0.0)},
        2,
        sources=(0,),
        start_ms=START_MS,
        horizon_ms=HORIZON_MS,
        br=params,
        channel=ChannelParams(tx_range_m=6.0, target_sir_db=NO_INTERFERENCE),
    )
    q = 1 - p
    retries = sum(
        q**k
        * (
            params.response_wait_ms
            + params.ack_wait_ms
            + params.slot_ms * ((1 << min(k, params.max_backoff_exponent)) - 1) / 2
        )
        for k in range(1, params.max_tx_attempts + 1)
    )
    model = 2 * _one_hop_mean(params) + retries
    delays = _delays(scenario, range(2000))
    ok, detail = _within_4_se(delays, model)
    assert ok, detail


def _responses_collected(listeners: int, slots: int, seed: int) -> int:
    """One RTS from a holder with `listeners` stations on a 3 m circle around it.

    Every station listens (p = 1), so each answers in one of `slots` jitter
    slots drawn from its own stream. The destination lies beyond the data
    range, so it hears no RTS. Equal-power Responses in one tick fail the
    10 dB SIR at the holder, so only the singleton slots are collected.
    """
    positions = {0: (0.0, 0.0), 1: (20.0, 0.0)}
    for i in range(listeners):
        angle = 2 * math.pi * i / listeners
        positions[2 + i] = (3.0 * math.cos(angle), 3.0 * math.sin(angle))
    scenario = make_scenario(
        positions,
        1,
        sources=(0,),
        start_ms=START_MS,  # past the horizon: no packet is generated
        horizon_ms=10_000,
        br=BrParams(relay_probability=1.0, response_slot_bound=slots),
        channel=ChannelParams(tx_range_m=6.0),
    )
    sim = Simulation(scenario, "br", seed)
    engine = sim.engine
    engine.run_until(100, sim._handle)  # every station holds a beacon reading
    holder = sim.nodes[0]
    holder.queue.append(PacketMeta(0, 0))
    holder._start_handshake()
    # the window closes at 100 + W; the last Response lands well before that
    engine.run_until(100 + sim.br_params.response_wait_ms - 1, sim._handle)
    return len(holder.responses)


@pytest.mark.parametrize("slots", (8, 32))
@pytest.mark.parametrize("listeners", (2, 8, 20))
def test_responses_collected_are_the_singleton_slots(listeners, slots):
    """Balls in bins: L Responses in S slots leave L*(1 - 1/S)**(L - 1) singletons."""
    counts = [_responses_collected(listeners, slots, seed) for seed in range(300)]
    model = listeners * (1 - 1 / slots) ** (listeners - 1)
    mean = statistics.fmean(counts)
    se = statistics.stdev(counts) / math.sqrt(len(counts))
    assert abs(mean - model) < 4 * se, f"mean {mean:.3f} vs model {model:.3f} (se {se:.3f})"
