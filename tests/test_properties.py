"""Protocol invariants over small random floors (hypothesis).

Every run, whatever the placement, walls, protocol and seed, must give each
generated packet exactly one outcome, keep wire hop counts within the hard
cap, never hand a long-travelled `br` packet back to a station that already
forwarded it, and let the first delivery beat any drop of the same packet,
otherwise the first drop stand. Each wait, too, keeps exactly the timers it
needs in flight. And an untraced run, which skips events that change
nothing, must give the results of the traced run of the same scenario and
seed, on floors whose timing forces same-tick ties; an untraced `aodv` run
must also keep the traced run's event order.
"""

import io
from collections import Counter, defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from brsim.baseline import CsmaParams
from brsim.br_node import BrParams
from brsim.channel import ChannelParams
from brsim.engine import TRACE_LINES, TimerFire
from brsim.simulation import Simulation

from conftest import NO_INTERFERENCE, make_scenario, make_sim

# lengths in 10 cm steps
gap = st.integers(15, 60).map(lambda dm: dm / 10.0)
along = st.integers(0, 300).map(lambda dm: dm / 10.0)
across = st.integers(0, 30).map(lambda dm: dm / 10.0)
aside = st.integers(0, 150).map(lambda dm: dm / 10.0)


@st.composite
def runs(draw):
    n = draw(st.integers(3, 8))
    # stations 1..n-1 form a jittered chain along a narrow floor, so routes
    # take several hops; the destination may sit off to the side, out of
    # data range but within beacon reach, where packets wander and die
    positions = {0: (draw(along), draw(aside))}
    x = 0.0
    for i in range(1, n):
        positions[i] = (x, draw(across))
        x += draw(gap)
    walls = draw(
        st.lists(
            st.tuples(along, across, along, across, st.sampled_from([10.0, 20.0, 35.0])),
            max_size=1,
        )
    )
    sources = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=3, unique=True))
    threshold = draw(st.integers(1, 3))
    br = BrParams(loop_threshold=threshold, hard_hop_cap=draw(st.integers(threshold, 8)))
    sim = make_sim(
        positions,
        0,
        draw(st.sampled_from(["br", "aodv"])),
        seed=draw(st.integers(0, 2**32 - 1)),
        sources=sources,
        walls=walls,
        channel=ChannelParams(tx_range_m=draw(st.sampled_from([6.0, 12.0]))),
        br=br,
        packets_per_source=draw(st.integers(1, 2)),
        inter_arrival_ms=30_000,
        horizon_ms=150_000,
    )
    return sim


def record_resolutions(sim):
    """Log every sim.deliver and sim.drop call, per uid, in call order."""
    delivered, dropped = defaultdict(list), defaultdict(list)
    deliver, drop = sim.deliver, sim.drop

    def logged_deliver(uid, hops):
        delivered[uid].append((hops, sim.engine.now))
        deliver(uid, hops)

    def logged_drop(uid, reason):
        dropped[uid].append((reason, sim.engine.now))
        drop(uid, reason)

    sim.deliver, sim.drop = logged_deliver, logged_drop
    return delivered, dropped


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(runs())
def test_run_invariants(sim):
    delivered, dropped = record_resolutions(sim)
    metrics = sim.run()
    cap = sim.br_params.hard_hop_cap
    assert metrics.generated == sim.scenario.traffic.packets_per_source * len(
        sim.scenario.traffic.sources
    )

    # one outcome per packet
    assert sorted(metrics.outcomes) == list(range(metrics.generated))
    for uid, outcome in metrics.outcomes.items():
        assert outcome.uid == uid
        assert outcome.delivered == (outcome.hops is not None)

    # the hop cap, on the wire and at delivery
    assert all(rec.hop_count <= cap for rec in metrics.routing_log)
    assert all(o.hops <= cap + 1 for o in metrics.outcomes.values() if o.delivered)

    # the first delivery beats any drop; otherwise the first drop stands
    for uid, outcome in metrics.outcomes.items():
        if delivered[uid]:
            assert outcome.delivered
            assert (outcome.hops, outcome.time_ms) == delivered[uid][0]
        elif dropped[uid]:
            assert (outcome.reason, outcome.time_ms) == dropped[uid][0]
        else:
            assert outcome.reason == "horizon"
            assert outcome.time_ms == sim.scenario.horizon_ms

    # no br revisit past the loop threshold
    if sim.protocol == "br":
        for rec in metrics.routing_log:
            if rec.hop_count <= sim.br_params.loop_threshold:
                continue
            priors = {
                hop.sender
                for hop in metrics.hops
                if hop.uid == rec.uid
                and hop.success
                and hop.receiver == rec.sender
                and hop.time_ms <= rec.time_ms
            }
            assert rec.receiver not in priors


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(runs())
def test_each_wait_keeps_its_one_timer(sim):
    """After every event: while a baseline station's CSMA queue has a head,
    it holds exactly one `cca` or `csma-idle` timer, and none otherwise; and
    every pending `select` or `backoff` timer is the one its node waits on."""
    handle = sim._handle

    def checked(ev):
        handle(ev)
        timers = [e for _, e in sim.engine.pending_events() if isinstance(e, TimerFire)]
        if sim.protocol == "aodv":
            csma = Counter(t.node for t in timers if t.tag in ("cca", "csma-idle"))
            for node in sim.nodes.values():
                assert csma[node.id] == (1 if node._csma_queue else 0)
        for t in timers:
            if t.tag in ("select", "backoff"):
                assert t is sim.nodes[t.node]._timer

    sim._handle = checked
    sim.run()


@st.composite
def tied_scenarios(draw):
    """A small chain whose waits and gaps land on, or next to, the epoch grid.

    Short epochs put several stations on one epoch tick, and waits of about
    one epoch schedule events onto the grid ticks of other stations, so
    the same-tick orders that every untraced skip must keep come up often.
    """
    epoch = draw(st.integers(3, 40))
    near = st.sampled_from([epoch - 1, epoch, epoch + 1, 2 * epoch])
    n = draw(st.integers(3, 8))
    positions = {i: (i * draw(gap), draw(across)) for i in range(n)}
    br = BrParams(
        relay_probability=draw(st.sampled_from([0.0, 0.3, 0.73, 1.0])),
        epoch_ms=epoch,
        response_wait_ms=draw(near),
        ack_wait_ms=draw(near),
        slot_ms=draw(st.sampled_from([1, epoch // 2, epoch])),
        bcast_ms=draw(near),
    )
    csma = CsmaParams(cca_ms=draw(near), slot_ms=draw(st.sampled_from([1, epoch // 2, epoch])))
    return make_scenario(
        positions,
        n - 1,
        sources=draw(st.lists(st.integers(0, n - 2), min_size=1, max_size=n - 1, unique=True)),
        channel=ChannelParams(
            tx_range_m=6.0, target_sir_db=draw(st.sampled_from([10.0, NO_INTERFERENCE]))
        ),
        br=br,
        csma=csma,
        packets_per_source=draw(st.integers(1, 4)),
        inter_arrival_ms=draw(near),
        start_ms=draw(st.integers(0, 2 * epoch)),
        horizon_ms=500 * epoch,
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tied_scenarios(), st.sampled_from(["br", "aodv"]), st.integers(0, 2**32 - 1))
def test_untraced_runs_behave_as_traced_runs(scenario, protocol, seed):
    """Every event an untraced run skips (after quiescence, repeat beacon
    arrivals) leaves its results as a traced run's."""
    quick = Simulation(scenario, protocol, seed).run()
    full = Simulation(scenario, protocol, seed, trace=io.StringIO()).run()
    for field in ("generated", "outcomes", "hops", "routing_log"):
        assert getattr(quick, field) == getattr(full, field), field


def _processed(sim):
    """Run the simulation; every event it processes, as its trace lines."""
    handle, seen = sim._handle, []

    def recording(ev):
        seen.extend(TRACE_LINES[type(ev)](sim.engine.now, ev))
        handle(ev)

    sim._handle = recording
    sim.run()
    return seen


def _kept(lines):
    """The events both runs must share: all but beacon arrivals."""
    return [ln for ln in lines if "\tDST_BCAST<-" not in ln]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tied_scenarios(), st.sampled_from(["br", "aodv"]), st.integers(0, 2**32 - 1))
def test_untraced_runs_keep_the_event_order(scenario, protocol, seed):
    """Apart from beacon arrivals, the untraced run processes the traced
    run's events, br epochs and aodv csma-idle timers included, in the same
    order, up to its quiescence stop."""
    quick = _kept(_processed(Simulation(scenario, protocol, seed)))
    full = _kept(_processed(Simulation(scenario, protocol, seed, trace=io.StringIO())))
    assert quick == full[: len(quick)]
