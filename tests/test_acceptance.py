"""Acceptance checks for the full simulator, one verdict line per criterion.

Each test prints exactly one "criterion N: PASS/FAIL - ..." line before its
assertions so a plain pytest run doubles as a checklist.  The heavyweight
chain-length sweep is shared by the first two criteria through a module
fixture; everything else builds its own small scenario inline.
"""

import math
import random
import statistics
import time

import pytest

from test_frame import random_frame

from brsim.baseline import CsmaParams
from brsim.br_node import BrParams
from brsim.channel import ChannelParams, LinkCache, Position, Topology
from brsim.frame import FRAME_SIZES, decode_frame, encode_frame
from brsim.scenario import Scenario, TrafficSpec, load_scenario
from brsim.simulation import Simulation, run_many
from brsim.metrics import summarize

SWEEP_SIZES = range(5, 16)
SWEEP_SEEDS = 100
SWEEP_OVERRIDES = [
    "traffic.packets_per_source=6",
    "traffic.inter_arrival_ms=90000",
    "horizon_s=800",
]


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def tandem_sweep():
    """Aggregate both protocols over chain sizes 5..15, 100 seeds each.

    Returns ({(protocol, n): Aggregate}, elapsed_seconds).
    """
    start = time.perf_counter()
    table = {}
    for n in SWEEP_SIZES:
        scenario = load_scenario(
            "tandem12", overrides=[f"topology.count={n}", *SWEEP_OVERRIDES]
        )
        jobs = [
            (scenario, protocol, seed, None)
            for protocol in ("br", "aodv")
            for seed in range(SWEEP_SEEDS)
        ]
        for agg in summarize(run_many(jobs)):
            table[(agg.protocol, agg.node_count)] = agg
    return table, time.perf_counter() - start


def test_criterion_1_hop_count_advantage(tandem_sweep):
    """Relay selection beats shortest-progress chaining on mean hop count."""
    table, elapsed = tandem_sweep
    gaps = {}
    ordered = True
    for n in SWEEP_SIZES:
        br, aodv = table[("br", n)], table[("aodv", n)]
        assert br.seed_count == SWEEP_SEEDS and aodv.seed_count == SWEEP_SEEDS
        assert br.mean_hops is not None and aodv.mean_hops is not None
        gaps[n] = aodv.mean_hops - br.mean_hops
        if br.mean_hops > aodv.mean_hops:
            ordered = False
    widening = gaps[15] > gaps[5]
    ok = ordered and widening and elapsed < 120.0
    _verdict(
        1,
        ok,
        f"gap n=5 {gaps[5]:.3f} -> n=15 {gaps[15]:.3f}, sweep {elapsed:.1f}s",
    )
    assert ordered, f"br mean hops exceeded aodv somewhere: {gaps}"
    assert widening, f"hop gap did not widen: {gaps[5]:.3f} vs {gaps[15]:.3f}"
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_perhop_distance_trend(tandem_sweep):
    """Per-hop distance: br dominates aodv, and both decay with density.

    The decay check allows a single adjacent-pair rise no larger than one
    sample standard deviation.
    """
    table, _ = tandem_sweep

    def rises(protocol):
        out = []
        for n in SWEEP_SIZES[:-1]:
            a, b = table[(protocol, n)], table[(protocol, n + 1)]
            if b.mean_perhop_distance_m > a.mean_perhop_distance_m:
                excess = b.mean_perhop_distance_m - a.mean_perhop_distance_m
                allowance = max(a.sd_perhop_distance_m, b.sd_perhop_distance_m)
                out.append((n, excess, allowance))
        return out

    def monotone(protocol):
        found = rises(protocol)
        if not found:
            return True, "strictly non-increasing"
        if len(found) == 1 and found[0][1] <= found[0][2]:
            n, excess, allowance = found[0]
            return True, f"one rise at n={n} ({excess:.3f} <= sd {allowance:.3f})"
        worst = max(found, key=lambda r: r[1])
        return False, (
            f"{len(found)} rises, worst at n={worst[0]} "
            f"(+{worst[1]:.3f} vs sd allowance {worst[2]:.3f})"
        )

    dominated = all(
        table[("br", n)].mean_perhop_distance_m
        >= table[("aodv", n)].mean_perhop_distance_m
        for n in SWEEP_SIZES
    )
    aodv_ok, aodv_note = monotone("aodv")
    br_ok, br_note = monotone("br")
    _verdict(
        2,
        dominated and aodv_ok and br_ok,
        f"br>=aodv everywhere: {dominated}; aodv {aodv_note}; br {br_note}",
    )
    assert dominated, "br per-hop distance fell below aodv"
    assert aodv_ok, f"aodv per-hop distance not decaying: {aodv_note}"
    assert br_ok, f"br per-hop distance not decaying: {br_note}"


def test_criterion_3_contention_free_routes():
    """With interference disabled the 12-chain routes are fully determined."""
    overrides = ["channel.target_sir_db=-1000", "traffic.packets_per_source=1"]
    scenario = load_scenario("tandem12", overrides=overrides)

    aodv_routes = set()
    for seed in range(3):
        metrics = Simulation(scenario, "aodv", seed).run()
        [uid] = metrics.outcomes
        assert metrics.outcomes[uid].delivered
        aodv_routes.add(tuple(metrics.route_of(uid)))
    full_chain = tuple(range(12))

    br_hops = []
    for seed in range(100):
        metrics = Simulation(scenario, "br", seed).run()
        [outcome] = metrics.outcomes.values()
        assert outcome.delivered, f"br seed {seed} failed: {outcome.reason}"
        br_hops.append(outcome.hops)
    median_br = statistics.median(br_hops)

    ok = aodv_routes == {full_chain} and median_br < 11
    _verdict(
        3,
        ok,
        f"aodv walks all 11 links every seed, br median {median_br:g} hops",
    )
    assert aodv_routes == {full_chain}, aodv_routes
    assert median_br < 11, br_hops


def test_criterion_4_relay_probability_extremes():
    """p=0 sends every Routing frame straight at the destination; p=1 sends none."""
    shoot_only = True
    shots = 0
    for seed in range(3):
        scenario = load_scenario(
            "motion_testbed", overrides=["protocol=br", "br.relay_probability=0"]
        )
        metrics = Simulation(scenario, "br", seed).run()
        shots += len(metrics.routing_log)
        destination = scenario.topology.destination
        if any(rec.receiver != destination for rec in metrics.routing_log):
            shoot_only = False

    silent = True
    for seed in range(3):
        scenario = load_scenario(
            "motion_testbed",
            overrides=["protocol=br", "br.relay_probability=1", "horizon_ms=100000"],
        )
        metrics = Simulation(scenario, "br", seed).run()
        assert metrics.generated > 0
        if metrics.routing_log:
            silent = False

    ok = shoot_only and shots > 0 and silent
    _verdict(
        4,
        ok,
        f"p=0: {shots} routing frames, all direct; p=1: zero routing frames",
    )
    assert shots > 0
    assert shoot_only, "a p=0 node handed a packet to a relay"
    assert silent, "a p=1 node transmitted a Routing frame"


def _hostile_scenario(name, positions, source, horizon_ms):
    """A topology whose destination is beyond data range of every relay."""
    topology = Topology(
        {i: Position(*p) for i, p in positions.items()}, destination=0
    )
    return Scenario(
        name=name,
        protocol="br",
        horizon_ms=horizon_ms,
        topology=topology,
        channel=ChannelParams(tx_range_m=6.0),
        br=BrParams(),
        csma=CsmaParams(),
        traffic=TrafficSpec(sources=(source,), packets_per_source=1,
                            inter_arrival_ms=60_000, start_ms=0),
    )


def _bounce_scenario():
    """Near-tied relay pair 0.5 m apart, both hearing the source, none the sink.

    Greedy forwarding shuttles the packet into the B/A pair and every later
    attempt re-picks between the two; nothing can reach the destination, so
    only bounded retries and a drop are acceptable.
    """
    positions = {0: (0.0, 0.0), 1: (7.5, 0.0), 2: (8.0, 0.0), 3: (12.0, 0.0)}
    return _hostile_scenario("bounce", positions, source=3,
                             horizon_ms=1_200_000)


def _spiral_scenario():
    """Chain of 12 relays spiralling in from 30 m to 8 m around the sink.

    Adjacent relays sit exactly 5 m apart (within data range), every other
    pair is farther than 9 m, and even the innermost relay is outside the
    6 m data range of the destination, so packets climb the whole chain one
    hop at a time and then die retrying.  The climb drives the wire hop
    count past the revisit-filter threshold in every run.
    """
    radii = [30.0 - 2.0 * k for k in range(12)]
    positions = {0: (0.0, 0.0)}
    theta = 0.0
    for k, r in enumerate(radii):
        if k:
            a, b = radii[k - 1], r
            theta += math.acos((a * a + b * b - 25.0) / (2 * a * b))
        positions[1 + k] = (r * math.cos(theta), r * math.sin(theta))
    return _hostile_scenario("spiral", positions, source=1,
                             horizon_ms=3_600_000)


def _audit_loop_safety(scenario, seeds):
    """Count unresolved packets, the hop-count ceiling, and filter breaches."""
    censored = 0
    max_hop = 0
    deep_runs = 0
    revisits = 0
    for seed in range(seeds):
        metrics = Simulation(scenario, "br", seed).run()
        [outcome] = metrics.outcomes.values()
        if outcome.reason == "horizon":
            censored += 1
        top = max((rec.hop_count for rec in metrics.routing_log), default=0)
        max_hop = max(max_hop, top)
        if top > 10:
            deep_runs += 1
        for rec in metrics.routing_log:
            if rec.hop_count <= 10:
                continue
            priors = {
                hop.sender
                for hop in metrics.hops
                if hop.uid == rec.uid
                and hop.success
                and hop.receiver == rec.sender
                and hop.time_ms <= rec.time_ms
            }
            if rec.receiver in priors:
                revisits += 1
    return censored, max_hop, deep_runs, revisits


def test_criterion_5_loop_guard_termination():
    """Hostile topologies: every packet terminates, no revisits past hop 10.

    The four-node bounce pair exercises greedy selection under a near-tie;
    the spiral pushes the hop count past the revisit-filter threshold so the
    prior-forwarder assertion is checked against live traffic, not vacuously.
    """
    seeds = 1000
    b_cens, b_max, _, b_rev = _audit_loop_safety(_bounce_scenario(), seeds)
    s_cens, s_max, s_deep, s_rev = _audit_loop_safety(_spiral_scenario(), seeds)

    ok = (
        b_cens == 0 and s_cens == 0
        and b_max <= 40 and s_max <= 40
        and b_rev == 0 and s_rev == 0
        and s_deep >= 990
    )
    _verdict(
        5,
        ok,
        f"{seeds} seeds each: unresolved {b_cens}+{s_cens}, max hop "
        f"{b_max}/{s_max}, {s_deep} spiral runs past the loop threshold, "
        f"{b_rev + s_rev} revisits",
    )
    assert b_cens == 0 and s_cens == 0, "a packet never terminated"
    assert b_max <= 40 and s_max <= 40, "hop count escaped the cap"
    assert b_rev == 0 and s_rev == 0, "a deep packet revisited a forwarder"
    assert s_deep >= 990, f"loop filter barely exercised: {s_deep}"


def test_criterion_6_wall_detour():
    """Traffic from behind the wall always detours through the doorway side."""
    scenario = load_scenario("motion_testbed")
    link = LinkCache(scenario.topology, scenario.channel)
    assert link.rssi_of(9, 0) < link.sensitivity, "wall premise broken"

    door_side = {1, 2, 3}
    delivered = {"br": 0, "aodv": 0}
    direct = 0
    missed_door = 0
    for protocol in ("br", "aodv"):
        for seed in range(5):
            metrics = Simulation(scenario, protocol, seed).run()
            for uid, outcome in metrics.outcomes.items():
                if outcome.source != 9 or not outcome.delivered:
                    continue
                delivered[protocol] += 1
                route = metrics.route_of(uid)
                assert route[0] == 9 and route[-1] == 0
                if outcome.hops < 2:
                    direct += 1
                if not set(route[1:-1]) & door_side:
                    missed_door += 1

    ok = min(delivered.values()) > 0 and direct == 0 and missed_door == 0
    _verdict(
        6,
        ok,
        f"deliveries br={delivered['br']}, aodv={delivered['aodv']}; "
        f"direct hops {direct}, routes missing door side {missed_door}",
    )
    assert min(delivered.values()) > 0, delivered
    assert direct == 0, f"{direct} packets crossed the wall in one hop"
    assert missed_door == 0, f"{missed_door} routes skipped the doorway nodes"


def test_criterion_7_frame_roundtrip():
    """100k random frames survive encode/decode byte-exactly at fixed sizes."""
    rng = random.Random(20260816)
    count = 100_000
    for _ in range(count):
        frame = random_frame(rng)
        wire = encode_frame(frame)
        assert len(wire) == FRAME_SIZES[frame.type]
        assert decode_frame(wire) == frame
    _verdict(7, True, f"{count} frames round-tripped at declared sizes")


def test_criterion_8_determinism(tmp_path):
    """Same seed means identical trace files, run twice or across processes."""
    scenario = load_scenario(
        "tandem12",
        overrides=[
            "topology.count=6",
            "horizon_s=120",
            "traffic.packets_per_source=2",
            "traffic.inter_arrival_ms=30000",
        ],
    )

    def traced(runs, workers, label):
        """(outcomes, trace file bytes) of each (protocol, seed) run."""
        paths = [tmp_path / f"{p}_seed{seed}_{label}.trace" for p, seed in runs]
        jobs = [(scenario, p, seed, str(path)) for (p, seed), path in zip(runs, paths)]
        done = list(run_many(jobs, max_workers=workers))
        return [(run.outcomes, path.read_bytes()) for run, path in zip(done, paths)]

    repeated = [("br", 7), ("aodv", 7)]
    repeat_ok = traced(repeated, 1, "first") == traced(repeated, 1, "second")
    runs = [(protocol, seed) for protocol in ("br", "aodv") for seed in range(3)]
    serial = traced(runs, 1, "serial")
    pooled_ok = len(serial) == len(runs) and serial == traced(runs, 2, "pooled")

    ok = repeat_ok and pooled_ok
    _verdict(
        8,
        ok,
        f"repeat runs identical: {repeat_ok}; 1 vs 2 workers identical: {pooled_ok}",
    )
    assert repeat_ok, "back-to-back runs with one seed diverged"
    assert pooled_ok, "worker count changed results"


def test_criterion_9_epoch_coin_bias():
    """The per-epoch listen coin tracks relay_probability within 4 sigma."""
    p = 0.73
    draws = 10_000
    scenario = _spiral_scenario()
    sim = Simulation(scenario, "br", 0)
    node = sim.nodes[1]
    assert not node.is_destination

    listening = 0
    for k in range(draws):
        sim.engine.now = node.offset + k * scenario.br.epoch_ms  # the start of epoch k
        listening += node.listening
    fraction = listening / draws
    tolerance = 4.0 * math.sqrt(p * (1.0 - p) / draws)
    ok = abs(fraction - p) < tolerance
    _verdict(
        9,
        ok,
        f"listen fraction {fraction:.4f} vs {p} (tolerance {tolerance:.4f})",
    )
    assert ok, f"|{fraction} - {p}| >= {tolerance}"
