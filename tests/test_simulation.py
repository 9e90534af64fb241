"""World-model behaviour: tick-atomic radio, adjudication, determinism."""

import dataclasses
import gc
import io
import multiprocessing.process
import os
import tracemalloc
import typing
from concurrent.futures import ProcessPoolExecutor

import pytest
from test_acceptance import SWEEP_OVERRIDES

from brsim import simulation
from brsim.br_node import BrParams
from brsim.channel import ChannelParams, LinkCache
from brsim.engine import BeaconTick, Event, FrameArrival
from brsim.frame import DstBcast, MessageType, Routing, SrcBcast
from brsim.scenario import build_scenario, load_scenario
from brsim.simulation import _DISPATCH, Simulation, run_many, run_scenario

from conftest import NO_INTERFERENCE, make_scenario, make_sim

# nodes 0 and 1 are 5 m apart and 3 sits midway; destination 2 is so far
# away that its beacons are inaudible and never perturb the others
CROSS = {0: (0.0, 0.0), 1: (10.0, 0.0), 3: (5.0, 0.0), 2: (10_000.0, 0.0)}
QUIET_TRAFFIC = {"start_ms": 10**9, "sources": (0,)}


def traced_run(scenario, protocol, seed):
    """Run with a trace; the run's metrics and its trace lines."""
    trace = io.StringIO()
    metrics = Simulation(scenario, protocol, seed, trace=trace).run()
    return metrics, trace.getvalue().splitlines()


def cross_sim(channel=None, protocol="br", seed=0):
    return make_sim(CROSS, 2, protocol, seed=seed, channel=channel, **QUIET_TRAFFIC)


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError, match="protocol"):
        Simulation(make_scenario(CROSS, 2, **QUIET_TRAFFIC), "olsr", 0)


# ---- reception adjudication ---------------------------------------------------


def record_frames(sim):
    """Every frame each station decodes, as (rx, tx, measured rssi), in arrival order."""
    heard = []
    for rx, node in sim.nodes.items():
        node.on_frame = lambda frame, tx, uid, measured, rx=rx: heard.append((rx, tx, measured))
    return heard


def rts(sim, tx, at=None):
    """Put `tx`'s RTS on the air at tick `at` (default now)."""
    sim.transmit_at(sim.engine.now if at is None else at, tx, SrcBcast(tx))


def test_clean_transmission_is_received():
    sim = cross_sim()
    heard = record_frames(sim)
    rts(sim, 0)
    sim.engine.run_until(1, sim._handle)
    assert (3, 0, -61) in heard  # 5 m on the default channel


def test_half_duplex_blocks_simultaneous_talkers():
    sim = cross_sim()
    heard = record_frames(sim)
    rts(sim, 0)
    rts(sim, 3)
    sim.engine.run_until(1, sim._handle)
    # each was transmitting during the other's tick: neither hears anything
    assert [h for h in heard if h[0] in (0, 3)] == []

    # with the SIR gate off, one burst holds talkers that hear nothing (3, and
    # 0 in the other) and 1, which decodes; so does the destination's beacon,
    # which goes out at tick 0
    sim = cross_sim(channel=ChannelParams(target_sir_db=NO_INTERFERENCE))
    heard = record_frames(sim)
    rts(sim, 0)
    rts(sim, 3)
    assert [(ev.tx, ev.rxs) for ev in _arrivals(sim)] == [(0, (1, 3)), (3, (0, 1))]
    sim.engine.run_until(1, sim._handle)
    assert heard == [(1, 0, -70), (1, 3, -61), (1, 2, -160)]  # from 0, 3 and the destination


def test_same_tick_equal_power_collision_destroys_both():
    sim = cross_sim()
    heard = record_frames(sim)
    rts(sim, 0)
    rts(sim, 1)
    sim.engine.run_until(1, sim._handle)
    assert [h for h in heard if h[0] == 3] == []  # SIR about 0 dB from each side


def test_collision_recovered_when_sir_gate_disabled():
    # disabling the SIR gate also lets the distant destination's beacon in
    sim = cross_sim(channel=ChannelParams(target_sir_db=-1000.0))
    heard = record_frames(sim)
    rts(sim, 0)
    rts(sim, 1)
    sim.engine.run_until(1, sim._handle)
    # both same-tick frames decoded
    assert [h for h in heard if h[0] == 3 and h[1] != 2] == [(3, 0, -61), (3, 1, -61)]


def test_consecutive_ticks_do_not_interfere():
    sim = cross_sim()
    heard = record_frames(sim)
    rts(sim, 0)
    rts(sim, 1, at=1)
    sim.engine.run_until(2, sim._handle)
    # both got through, one per tick
    assert [h for h in heard if h[0] == 3] == [(3, 0, -61), (3, 1, -61)]


def test_only_the_destination_beacons():
    sim = cross_sim()
    with pytest.raises(ValueError, match="only the destination beacons"):
        sim.transmit_at(sim.engine.now, 0, DstBcast(0))
    assert not sim._tx  # and no air time was booked


# ---- arrival fan-out -----------------------------------------------------------


def _arrivals(sim):
    """The pending frame arrivals, in the order they will run."""
    return [ev for _, ev in sim.engine.pending_events() if isinstance(ev, FrameArrival)]


def test_beacons_fan_out_by_sir_reach():
    # 31.6 m: beyond the 30 m data range, inside the beacon SIR reach
    positions = {0: (0.0, 0.0), 1: (10.0 ** 1.5, 0.0), 2: (31.62 + 40.0, 0.0)}
    sim = make_sim(positions, 0, "br", sources=(1,), start_ms=10**9)
    before = sim.engine.pending()
    sim.transmit()
    assert sim.engine.pending() == before + 1
    [burst] = _arrivals(sim)
    assert burst.rxs == (1,)  # node 1 only, node 2 is too far
    assert not sim.link.can_hear(0, 1)
    sim.engine.run_until(1, sim._handle)
    assert sim.nodes[1].dst_rssi == -85


def test_addressed_frames_gated_by_hearing_range():
    sim = cross_sim()
    now = sim.engine.now
    before = sim.engine.pending()
    sim.transmit_at(now, 0, Routing(0, 2, 0, 2, 0), only_to=2, uid=9)
    assert sim.engine.pending() == before  # no arrival: 2 cannot hear 0
    assert 0 in sim._tx[now]  # but the air time is still spent
    # an audible target gets a burst of one, though 1 hears 0 as well
    sim.transmit_at(now, 0, Routing(0, 2, 0, 3, 0), only_to=3, uid=9)
    [burst] = _arrivals(sim)
    assert (burst.rxs, burst.tx, burst.uid) == ((3,), 0, 9)
    # the radio logs nothing: the node that puts a data frame on the air does
    assert not sim.metrics.routing_log
    sim.nodes[0]._on_air(Routing(0, 2, 0, 2, 0), 2, 9, now)
    assert len(_arrivals(sim)) == 1  # still no arrival at 2
    [rec] = sim.metrics.routing_log
    assert (rec.time_ms, rec.sender, rec.receiver, rec.uid, rec.hop_count) == (now, 0, 2, 9, 0)


def test_a_broadcast_is_one_arrival_for_all_its_hearers():
    sim = cross_sim()
    before = sim.engine.pending()
    rts(sim, 3)
    assert sim.engine.pending() == before + 1
    [burst] = _arrivals(sim)
    assert burst.rxs == sim.link.hearers[3] == (0, 1)
    heard = record_frames(sim)
    sim.engine.run_until(1, sim._handle)
    assert heard == [(0, 3, -61), (1, 3, -61)]  # each adjudicated, in id order


def test_broadcast_skips_sender_itself():
    sim = cross_sim()
    heard = record_frames(sim)
    rts(sim, 3)
    sim.engine.run_until(1, sim._handle)
    assert [h for h in heard if h[0] == 3] == []
    assert (0, 3, -61) in heard


# ---- clear-channel assessment ----------------------------------------------------


def test_channel_busy_sees_audible_current_tick_transmitters():
    sim = cross_sim()
    assert not sim.channel_busy(3)
    sim._tx.setdefault(sim.engine.now, set()).add(0)
    assert sim.channel_busy(3)  # 5 m away, audible
    assert not sim.channel_busy(0)  # own transmission does not count
    assert not sim.channel_busy(2)  # 10 km away, inaudible


def test_channel_busy_ignores_other_ticks():
    sim = cross_sim()
    sim._tx[sim.engine.now + 5] = {0}
    assert not sim.channel_busy(3)


def test_transmission_register_stays_small_over_a_busy_run():
    # 10 x 10 grid, 2 m spacing, every station a source: about 21k transmissions
    scenario = build_scenario(
        {
            "name": "dense_grid",
            "horizon_s": 800,
            "topology": {
                "generator": "grid",
                "rows": 10,
                "cols": 10,
                "floor_width_m": 18.0,
                "floor_length_m": 18.0,
            },
            "channel": {"tx_range_m": 6.0},
            "traffic": {"sources": "all"},
        }
    )
    sim = Simulation(scenario, "aodv", 0)
    sizes = []
    transmit_at = sim.transmit_at

    def measuring_transmit_at(*args, **kwargs):
        transmit_at(*args, **kwargs)
        sizes.append(len(sim._tx))

    sim.transmit_at = measuring_transmit_at
    assert sim.run().delivered_count == 99
    # only ticks now and now - 1 are read, plus CSMA bookings a few ticks ahead
    assert len(sizes) > 10_000
    assert max(sizes) < 10
    assert len(sim._tx) < 10


# ---- traffic and outcomes ----------------------------------------------------------


def test_traffic_schedule_start_plus_inter_arrival():
    scenario = make_scenario(
        CROSS,
        2,
        sources=(0, 1),
        packets_per_source=2,
        inter_arrival_ms=7000,
        start_ms=500,
        horizon_ms=20_000,
    )
    metrics, trace = traced_run(scenario, "br", 3)
    assert metrics.generated == 4
    lines = [ln for ln in trace if "\ttraffic:" in ln]
    times = sorted(int(ln.split("\t")[0]) for ln in lines)
    assert times == [500, 500, 7500, 7500]
    assert set(metrics.outcomes) == {0, 1, 2, 3}


def test_delivery_beats_recorded_drop():
    sim = cross_sim()
    sim._generate_packet(0)
    sim._generate_packet(0)
    sim.drop(0, "max_attempts")
    sim.deliver(0, 2)  # e.g. the ack was lost but the packet got through
    sim.deliver(1, 3)
    sim.drop(1, "hop_cap")
    assert sim.metrics.outcomes[0].delivered
    assert sim.metrics.outcomes[1].delivered
    assert sim.metrics.outcomes[1].hops == 3


def test_unresolved_packets_time_out_at_horizon():
    sim = cross_sim()
    sim._generate_packet(0)
    [outcome] = sim.metrics.outcomes.values()
    assert not outcome.delivered
    assert outcome.reason == "horizon"
    assert outcome.time_ms == sim.scenario.horizon_ms


def test_first_resolution_wins():
    sim = cross_sim()
    sim._generate_packet(0)
    sim._generate_packet(0)
    sim.drop(0, "max_attempts")
    sim.drop(0, "hop_cap")
    sim.deliver(1, 2)
    sim.deliver(1, 5)  # a retransmission whose earlier ack was lost
    assert sim.metrics.outcomes[0].reason == "max_attempts"
    assert sim.metrics.outcomes[1].hops == 2


# ---- decision epochs ----------------------------------------------------------------


def test_epochs_offset_then_periodic_per_node():
    scenario = make_scenario(
        {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (10.0, 0.0)},
        2,
        sources=(0,),
        channel=ChannelParams(tx_range_m=6.0),
        start_ms=1_000,
        horizon_ms=300_000,
    )
    sim = Simulation(scenario, "br", 1, trace=io.StringIO())
    metrics = sim.run()
    trace = sim.engine.trace.getvalue().splitlines()
    assert metrics.delivered_count == 1
    epoch_ms = scenario.br.epoch_ms
    for node in (0, 1):
        offset = sim.nodes[node].offset
        assert 0 <= offset < epoch_ms
        times = [
            int(ln.split("\t")[0])
            for ln in trace
            if ln.split("\t")[1] == "epoch" and ln.split("\t")[2] == str(node)
        ]
        # from the first grid tick at or after the packet's arrival, one
        # epoch per period, up to the first one after the packet has left
        [held] = [h.time_ms for h in metrics.hops if h.receiver == node] or [1_000]
        [left] = [h.time_ms for h in metrics.hops if h.sender == node and h.success]
        assert times[0] == held + (offset - held) % epoch_ms
        assert all(b - a == epoch_ms for a, b in zip(times, times[1:]))
        assert times[-1] - epoch_ms < left <= times[-1]
    assert not any(
        ln.split("\t")[1] == "epoch" and ln.split("\t")[2] == "2" for ln in trace
    )


def test_aodv_runs_take_no_epochs():
    sim = cross_sim(protocol="aodv")
    sim.run()
    assert sim.engine.trace is None
    _, trace = traced_run(make_scenario(CROSS, 2, **QUIET_TRAFFIC), "aodv", 0)
    assert not any("\tepoch\t" in ln for ln in trace)


# ---- determinism ----------------------------------------------------------------------


def chain_scenario():
    return make_scenario(
        {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (10.0, 0.0)},
        2,
        sources=(0,),
        channel=ChannelParams(tx_range_m=6.0),
        packets_per_source=2,
        inter_arrival_ms=30_000,
        horizon_ms=300_000,
    )


@pytest.mark.parametrize("protocol", ["br", "aodv"])
def test_identical_seed_identical_trace(protocol):
    scenario = chain_scenario()
    a, a_trace = traced_run(scenario, protocol, 7)
    b, b_trace = traced_run(scenario, protocol, 7)
    assert a_trace == b_trace
    assert a.outcomes == b.outcomes
    assert a.hops == b.hops
    _, c_trace = traced_run(scenario, protocol, 8)
    assert c_trace != a_trace


def test_run_many_preserves_job_order_and_results(tmp_path):
    scenario = chain_scenario()
    order = [(p, s) for p in ("br", "aodv") for s in range(3)]
    results = {}
    for workers in (1, 2):
        paths = [tmp_path / f"{p}{s}_jobs{workers}.trace" for p, s in order]
        jobs = [(scenario, p, s, str(path)) for (p, s), path in zip(order, paths)]
        runs = list(run_many(jobs, max_workers=workers))
        assert [(r.protocol, r.seed) for r in runs] == order
        assert all(r.trace is None for r in runs)  # each trace went to its file
        results[workers] = [(r.outcomes, path.read_bytes()) for r, path in zip(runs, paths)]
    assert results[1] == results[2]


def test_serial_run_many_starts_each_job_when_its_result_is_taken(monkeypatch):
    started = []

    def recording(scenario, protocol, seed, trace_path=None):
        started.append(seed)
        return run_scenario(scenario, protocol, seed, trace_path)

    monkeypatch.setattr(simulation, "run_scenario", recording)
    scenario = chain_scenario()
    runs = run_many([(scenario, "br", s, None) for s in range(3)], max_workers=1)
    assert started == []
    assert next(runs).seed == 0
    assert started == [0]


def test_run_many_yields_the_runs_before_a_failed_job_then_its_error():
    scenario = chain_scenario()
    jobs = [(scenario, "br", 0, None), (scenario, "br", 1, None), (scenario, "olsr", 2, None)]
    for workers in (1, 2):
        runs = run_many(jobs, max_workers=workers)
        assert [next(runs).seed, next(runs).seed] == [0, 1]
        with pytest.raises(ValueError, match="unknown protocol"):
            next(runs)
        assert list(runs) == []


def test_pooled_run_many_keeps_a_bounded_window_in_flight(monkeypatch):
    submitted = []
    submit = ProcessPoolExecutor.submit

    def counting_submit(pool, fn, *job):
        submitted.append(job[2])
        return submit(pool, fn, *job)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", counting_submit)
    scenario = chain_scenario()
    window = 2 * simulation._JOBS_PER_WORKER
    runs = run_many([(scenario, "br", s, None) for s in range(50)], max_workers=2)
    assert next(runs).seed == 0
    assert submitted == list(range(window))
    assert [r.seed for r in runs] == list(range(1, 50))
    assert submitted == list(range(50))

    # a failed job raises once the run before it is taken; the jobs past
    # the window behind it never start
    submitted.clear()
    jobs = [(scenario, "olsr" if s == 1 else "br", s, None) for s in range(50)]
    runs = run_many(jobs, max_workers=2)
    assert next(runs).seed == 0
    with pytest.raises(ValueError, match="unknown protocol"):
        next(runs)
    assert submitted == list(range(window + 1))


def test_run_many_starts_no_more_workers_than_jobs(monkeypatch):
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    scenario = chain_scenario()
    runs = list(run_many([(scenario, "br", s, None) for s in range(2)], max_workers=6))
    assert [r.seed for r in runs] == [0, 1]
    assert len(started) == 2


# ---- quiescence stop ------------------------------------------------------------


def _untraced_and_traced(scenario, protocol, seed=0, prepare=lambda sim: None):
    runs = []
    for trace in (None, io.StringIO()):
        sim = Simulation(scenario, protocol, seed, trace=trace)
        prepare(sim)
        sim.run()
        assert sim.engine.now == scenario.horizon_ms
        runs.append(sim)
    return runs


def _same_behaviour(a, b):
    for field in ("generated", "outcomes", "hops", "routing_log"):
        assert getattr(a.metrics, field) == getattr(b.metrics, field), field


@pytest.mark.parametrize("protocol", ["br", "aodv"])
def test_untraced_run_still_routes_packets_generated_after_queues_empty(protocol):
    scenario = make_scenario(
        {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (10.0, 0.0)},
        2,
        sources=(0,),
        channel=ChannelParams(tx_range_m=6.0),
        packets_per_source=3,
        inter_arrival_ms=200_000,
        horizon_ms=700_000,
    )
    quick, full = _untraced_and_traced(scenario, protocol)
    _same_behaviour(quick, full)
    outcomes = quick.metrics.outcomes
    assert quick.metrics.generated == 3
    assert all(o.delivered for o in outcomes.values())
    # every packet resolved long before the next one was generated
    assert [o.time_ms // 200_000 for o in outcomes.values()] == [0, 1, 2]
    assert quick.engine.processed < full.engine.processed


@pytest.mark.parametrize("protocol", ["br", "aodv"])
def test_packets_censored_in_a_stopped_run_keep_the_horizon_time(protocol):
    scenario = chain_scenario()
    # the relay already holds uid 0 in its history, so it acks the first
    # packet and discards it as a duplicate: the packet leaves every queue
    # without an outcome, and the untraced run stops there
    quick, full = _untraced_and_traced(
        scenario, protocol, prepare=lambda sim: sim.nodes[1]._seen.add(0)
    )
    _same_behaviour(quick, full)
    censored = quick.metrics.outcomes[0]
    assert (censored.reason, censored.time_ms) == ("horizon", scenario.horizon_ms)
    assert quick.engine.processed < full.engine.processed


def test_packets_still_held_at_the_horizon_keep_the_horizon_time():
    scenario = make_scenario(
        {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (10.0, 0.0)},
        2,
        sources=(0,),
        channel=ChannelParams(tx_range_m=6.0),
        horizon_ms=3_000,  # shorter than one handshake
    )
    for protocol in ("br", "aodv"):
        quick, full = _untraced_and_traced(scenario, protocol)
        _same_behaviour(quick, full)
        [outcome] = quick.metrics.outcomes.values()
        assert (outcome.reason, outcome.time_ms) == ("horizon", 3_000)


def test_untraced_spiral_stops_early_with_identical_results():
    from test_acceptance import _spiral_scenario

    quick, full = _untraced_and_traced(_spiral_scenario(), "br")
    _same_behaviour(quick, full)
    [outcome] = quick.metrics.outcomes.values()
    assert outcome.reason == "max_attempts"
    # the traced run goes on to the horizon with beacons alone
    assert quick.engine.now == full.engine.now == _spiral_scenario().horizon_ms
    assert quick.engine.processed * 3 < full.engine.processed


def test_hand_driven_run_until_is_never_stopped_early():
    scenario = chain_scenario()
    full = Simulation(scenario, "br", 0, trace=io.StringIO())
    full.run()
    sim = Simulation(scenario, "br", 0)
    sim.engine.run_until(scenario.horizon_ms, sim._handle)
    assert sim.engine.processed == full.engine.processed
    assert sim.engine.pending() > 0  # epochs and beacons past the horizon


def test_traffic_due_after_the_horizon_does_not_hold_the_run_open():
    second_too_late = make_scenario(
        {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (10.0, 0.0)},
        2,
        sources=(0,),
        channel=ChannelParams(tx_range_m=6.0),
        packets_per_source=2,
        inter_arrival_ms=400_000,
        horizon_ms=300_000,
    )
    quick, full = _untraced_and_traced(second_too_late, "br")
    _same_behaviour(quick, full)
    assert quick.metrics.generated == 1
    assert quick.engine.processed < full.engine.processed

    silent = make_scenario(CROSS, 2, **QUIET_TRAFFIC)
    quick, full = _untraced_and_traced(silent, "br")
    assert quick.metrics.generated == 0
    assert quick.engine.processed == 0
    assert full.engine.processed > 0


@pytest.mark.parametrize("protocol", ["br", "aodv"])
def test_no_traffic_arrival_is_scheduled_past_the_horizon(protocol):
    scenario = make_scenario(
        {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (10.0, 0.0)},
        2,
        sources=(0, 1),
        channel=ChannelParams(tx_range_m=6.0),
        packets_per_source=1000,
        inter_arrival_ms=100_000,
        start_ms=50_000,
        horizon_ms=350_000,
    )
    sim = Simulation(scenario, protocol, 0)
    # the beacon and each source's arrivals at 50, 150, 250 and 350 s: no
    # station holds a packet yet, so no br station has an epoch due
    assert sim.engine.pending() == 1 + 2 * 4
    assert sim._traffic_due == 2 * 4


# ---- repeat beacon arrivals ------------------------------------------------------

BEACON_SKIP_SCENARIOS = {
    "motion_testbed": lambda: load_scenario("motion_testbed"),
    "grid_6x6": lambda: build_scenario(
        {
            "name": "grid_6x6",
            "horizon_s": 300,
            "topology": {
                "generator": "grid",
                "rows": 6,
                "cols": 6,
                "floor_width_m": 10.0,
                "floor_length_m": 10.0,
            },
            "channel": {"tx_range_m": 6.0},
            "traffic": {"sources": "all"},
        }
    ),
    "tandem_n15": lambda: load_scenario(
        "tandem12", overrides=["topology.count=15", *SWEEP_OVERRIDES]
    ),
    # beacons reach well past the 4 m data range, so beacon hearers and data
    # hearers differ, and every station is a source
    "short_range_tandem": lambda: load_scenario(
        "tandem12",
        overrides=[
            "channel.tx_range_m=4",
            "traffic.sources=all",
            "traffic.packets_per_source=1",
            "horizon_s=300",
        ],
    ),
}


@pytest.mark.parametrize("protocol", ["br", "aodv"])
@pytest.mark.parametrize("name", sorted(BEACON_SKIP_SCENARIOS))
def test_untraced_runs_without_repeat_beacons_behave_as_traced_runs(name, protocol):
    scenario = BEACON_SKIP_SCENARIOS[name]()
    for seed in range(13):
        quick, full = _untraced_and_traced(scenario, protocol, seed)
        _same_behaviour(quick, full)


def _beacon_arrivals(scenario, trace):
    """Run once; for each beacon arrival scheduled, whether rx held a reading."""
    sim = Simulation(scenario, "br", 0, trace=trace)
    handle = sim._handle
    held = []

    def recording(ev):
        handle(ev)
        if isinstance(ev, BeaconTick):  # it just scheduled its arrivals
            held.extend(
                sim.nodes[rx].dst_rssi is not None
                for _, a in sim.engine.pending_events()
                if isinstance(a, FrameArrival) and a.frame.type is MessageType.DST_BCAST
                for rx in a.rxs
            )

    sim._handle = recording
    sim.run()
    return held


def test_untraced_runs_send_beacons_only_to_stations_without_a_reading():
    scenario = BEACON_SKIP_SCENARIOS["tandem_n15"]()
    untraced = _beacon_arrivals(scenario, trace=None)
    assert untraced and not any(untraced)
    # a traced run keeps the repeat arrivals, because its trace records them
    assert any(_beacon_arrivals(scenario, trace=io.StringIO()))


# ---- same-tick epoch ties --------------------------------------------------------


def _forced_ties(epoch_ms, count=8, gap=7, span=400, **br):
    """Every station a source on a short chain, with br waits on the epoch grid.

    Short epochs and dense traffic make a station's grid tick meet other
    events often, and waits of whole epochs schedule events exactly one
    epoch ahead, onto the grid ticks of other stations. Packets come every
    `gap` epochs, and the run lasts `span` epochs.
    """
    overrides = [
        f"topology.count={count}",
        "traffic.sources=all",
        "traffic.start_ms=0",
        "traffic.packets_per_source=4",
        f"traffic.inter_arrival_ms={gap * epoch_ms}",
        f"horizon_ms={span * epoch_ms}",
        f"br.epoch_ms={epoch_ms}",
        *(f"br.{field}={value}" for field, value in br.items()),
    ]
    return load_scenario("tandem12", overrides=overrides)


EPOCH_TIES = {
    "ack_wait=epoch": lambda: _forced_ties(13, ack_wait_ms=13, response_wait_ms=14, slot_ms=1),
    "response_wait=epoch": lambda: _forced_ties(5, response_wait_ms=5, ack_wait_ms=10, slot_ms=1),
    "2 slots=epoch": lambda: _forced_ties(40, slot_ms=20, response_wait_ms=40, ack_wait_ms=80),
    "epoch 3": lambda: _forced_ties(3, ack_wait_ms=3, response_wait_ms=4, slot_ms=1),
    # eleven stations on 13 offsets: every seed here puts two or three on one grid
    "shared offsets": lambda: _forced_ties(
        13, count=12, gap=3, span=300, response_wait_ms=26, ack_wait_ms=13, slot_ms=1
    ),
}


@pytest.mark.parametrize("name", sorted(EPOCH_TIES))
def test_untraced_runs_with_parked_epochs_behave_as_traced_runs(name):
    scenario = EPOCH_TIES[name]()
    for seed in range(12):
        quick, full = _untraced_and_traced(scenario, "br", seed)
        _same_behaviour(quick, full)


def test_runs_of_one_scenario_share_one_link_table():
    one = chain_scenario()
    other = make_scenario({0: (0.0, 0.0), 1: (4.0, 0.0), 2: (8.0, 0.0), 3: (12.0, 0.0)}, 3)
    first = Simulation(one, "br", 0).link
    assert Simulation(one, "aodv", 1).link is first
    assert Simulation(other, "br", 0).link is not first
    # only the last table is kept
    assert Simulation(one, "br", 0).link is not first


def _link_builds(monkeypatch, tmp_path):
    """Log each link table built, in this process or a forked worker, by pid."""
    log = tmp_path / "builds"
    log.touch()
    init = LinkCache.__init__

    def logging_init(cache, *args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        init(cache, *args)

    monkeypatch.setattr(LinkCache, "__init__", logging_init)
    monkeypatch.setattr(simulation, "_last_link", None)  # a forked worker inherits it
    return lambda: log.read_text().split()


def test_scenarios_of_equal_topology_and_channel_share_one_link_table(monkeypatch, tmp_path):
    builds = _link_builds(monkeypatch, tmp_path)
    first = Simulation(chain_scenario(), "br", 0).link
    assert Simulation(chain_scenario(), "aodv", 0).link is first
    # the sheets of a --p sweep: equal topology and channel, other br params
    sheets = [
        dataclasses.replace(chain_scenario(), br=BrParams(relay_probability=p))
        for p in (0.3, 0.5, 0.7)
    ]
    runs = list(run_many([(sheet, "br", 0, None) for sheet in sheets]))
    assert len(runs) == 3
    assert len(builds()) == 1


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="counts builds through a patch that only forked workers inherit",
)
def test_pooled_runs_of_one_scenario_build_one_link_table_per_worker(monkeypatch, tmp_path):
    builds = _link_builds(monkeypatch, tmp_path)
    scenario = chain_scenario()
    runs = list(run_many([(scenario, "br", s, None) for s in range(6)], max_workers=2))
    assert [r.seed for r in runs] == list(range(6))
    assert 1 <= len(builds()) <= 2
    assert len(set(builds())) == len(builds())
    assert str(os.getpid()) not in builds()


def test_every_event_type_has_a_handler():
    assert set(_DISPATCH) == set(typing.get_args(Event))


# ---- lifetime ---------------------------------------------------------------------


def test_a_traced_runs_memory_does_not_grow_with_its_horizon(tmp_path):
    """A traced run writes its trace as it goes: ten times the horizon leaves
    its peak allocation where it was."""

    def traced(name, overrides):
        scenario = load_scenario("tandem12", overrides)
        run_scenario(scenario, "br", 0)  # builds the link table both runs share
        path = tmp_path / f"{name}.trace"
        tracemalloc.start()
        try:
            run_scenario(scenario, "br", 0, trace_path=str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, path.stat().st_size

    short_peak, short_size = traced("short", [])
    long_peak, long_size = traced("long", ["horizon_s=15000", "traffic.packets_per_source=10"])
    assert long_size > 5 * short_size
    assert long_peak <= 1.5 * short_peak


def test_finished_runs_are_freed_without_a_gc_pass(tmp_path):
    def live_simulations():
        return sum(isinstance(o, Simulation) for o in gc.get_objects())

    scenario = chain_scenario()
    gc.collect()
    before = live_simulations()
    gc.disable()
    try:
        for protocol in ("br", "aodv"):
            for trace_path in (None, str(tmp_path / f"{protocol}.trace")):
                run_scenario(scenario, protocol, 0, trace_path)
        assert live_simulations() == before
    finally:
        gc.enable()
    # the nodes of a finished run stay readable
    sim = Simulation(scenario, "br", 0)
    sim.run()
    assert sorted(sim.nodes) == sorted(scenario.topology.nodes)
    assert sim.nodes[1].dst_rssi is not None
