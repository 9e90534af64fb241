"""Relay-election policy, loop filtering, routing acceptance, ACK/BEB logic."""

import pytest

from brsim.br_node import BrParams
from brsim.channel import ChannelParams
from brsim.engine import DecisionEpoch, TimerFire
from brsim.frame import Ack, DstBcast, MessageType, Response, Routing, SrcBcast
from brsim.metrics import Outcome
from brsim.protocol import PacketMeta, ResponseRecord
from brsim.scenario import load_scenario
from brsim.simulation import run_scenario

from conftest import make_sim

# src -- 5 m -- relay -- 5 m -- dst, data range 6 m: src cannot reach dst
# directly with data frames but hears its beacons (SIR-only).
LINE3 = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (10.0, 0.0)}

SHORT_RANGE = ChannelParams(tx_range_m=6.0)


def br_sim(seed=0, **kwargs):
    kwargs.setdefault("channel", SHORT_RANGE)
    return make_sim(LINE3, 2, "br", seed=seed, sources=(0,), **kwargs)


def rr(responder, dst_rssi, link_rssi=-50):
    return ResponseRecord(responder, dst_rssi, link_rssi)


def to_coin(node, listening):
    """Move the clock to the start of the node's first epoch whose coin is `listening`."""
    engine = node.sim.engine
    engine.now = node.offset
    while node.listening is not listening:
        engine.now += node.params.epoch_ms


def scheduled(sim, tag=None):
    events = sim.engine.pending_events()
    if tag is None:
        return events
    return [(t, ev) for t, ev in events if isinstance(ev, TimerFire) and ev.tag == tag]


# ---- forwarder selection -----------------------------------------------------


def test_select_highest_dst_rssi_wins():
    node = br_sim().nodes[0]
    node.dst_rssi = None
    meta = PacketMeta(1, 0)
    assert node.select_next_hop(meta, [rr(1, -70), rr(3, -60)]) == 3


def test_select_tie_breaks_to_lowest_id():
    node = br_sim().nodes[0]
    node.dst_rssi = None
    meta = PacketMeta(1, 0)
    assert node.select_next_hop(meta, [rr(5, -60), rr(3, -60), rr(4, -60)]) == 3


def test_select_ignores_link_strength():
    node = br_sim().nodes[0]
    node.dst_rssi = None
    meta = PacketMeta(1, 0)
    # stronger link must not beat better destination proximity
    assert node.select_next_hop(meta, [rr(1, -60, -30), rr(3, -59, -95)]) == 3


def test_select_shoots_when_own_reading_at_least_best():
    node = br_sim().nodes[0]
    meta = PacketMeta(1, 0)
    node.dst_rssi = -60
    assert node.select_next_hop(meta, [rr(1, -60), rr(3, -65)]) == node.destination
    node.dst_rssi = -59
    assert node.select_next_hop(meta, [rr(1, -60)]) == node.destination
    node.dst_rssi = -61
    assert node.select_next_hop(meta, [rr(1, -60)]) == 1


def test_select_shoots_with_no_responses():
    node = br_sim().nodes[0]
    node.dst_rssi = -70
    assert node.select_next_hop(PacketMeta(1, 0), []) == node.destination


def test_select_winner_invariant_under_rssi_offset():
    node = br_sim().nodes[0]
    node.dst_rssi = None
    meta = PacketMeta(1, 0)
    base = [rr(1, -72), rr(3, -64), rr(4, -64), rr(6, -80)]
    for off in (-13, 0, 13):
        shifted = [rr(r.responder, r.dst_rssi + off) for r in base]
        assert node.select_next_hop(meta, shifted) == 3


def test_a_station_within_ref_distance_ties_the_destination():
    # station 1 lies 0.94 m from the destination, inside ref_distance_m, where
    # path loss clamps: it reads the destination's own reading. The source is
    # 5 m from the destination and 5.56 m from station 1.
    floor = {0: (0.0, 0.0), 1: (5.5, 0.8), 2: (5.0, 0.0)}
    meta = PacketMeta(1, 0)
    for protocol, next_hop in (("br", 1), ("aodv", 2)):
        sim = make_sim(floor, 2, protocol, sources=(0,), channel=SHORT_RANGE)
        link, src, dst = sim.link, sim.nodes[0], sim.nodes[2]
        assert dst.dst_rssi == link.rssi_of(2, 2) == link.rssi_of(2, 1) == -40
        src.dst_rssi = link.rssi_of(2, 0)
        offers = [rr(n, link.rssi_of(2, n), link.rssi_of(n, 0)) for n in (1, 2)]
        assert offers[0].link_rssi < offers[1].link_rssi
        # br ranks by reading, so station 1 wins the tie on its lower id; aodv
        # takes the strongest link among strictly better readings
        assert src.select_next_hop(meta, offers) == next_hop, protocol


# ---- loop filter ---------------------------------------------------------------


def test_loop_filter_inactive_at_threshold():
    node = br_sim().nodes[0]
    node.dst_rssi = None
    node.prior_forwarders[9].add(3)
    meta = PacketMeta(9, 0, hop_count=10)  # == loop_threshold
    for responder in (1, 3, 4):  # each one admissible, the prior forwarder too
        assert node.select_next_hop(meta, [rr(responder, -60)]) == responder
    assert node.select_next_hop(meta, [rr(1, -70), rr(3, -40), rr(4, -60)]) == 3


def test_loop_filter_excludes_prior_forwarders_past_threshold():
    node = br_sim().nodes[0]
    node.dst_rssi = None
    node.prior_forwarders[9].update({3, 4})
    meta = PacketMeta(9, 0, hop_count=11)
    for responder, chosen in ((1, 1), (3, node.destination), (4, node.destination)):
        assert node.select_next_hop(meta, [rr(responder, -60)]) == chosen
    assert node.select_next_hop(meta, [rr(1, -70), rr(3, -40), rr(4, -60)]) == 1


def test_loop_filter_is_per_packet():
    node = br_sim().nodes[0]
    node.dst_rssi = None
    node.prior_forwarders[9].add(3)
    other = PacketMeta(8, 0, hop_count=11)
    assert node.select_next_hop(other, [rr(3, -60)]) == 3


def test_all_candidates_filtered_means_shoot():
    node = br_sim().nodes[0]
    node.dst_rssi = None
    node.prior_forwarders[9].update({1, 3})
    meta = PacketMeta(9, 0, hop_count=11)
    assert node.select_next_hop(meta, [rr(1, -50), rr(3, -40)]) == node.destination


# ---- routing acceptance ---------------------------------------------------------


def test_routing_accept_acks_and_enqueues():
    sim = br_sim()
    relay = sim.nodes[1]
    before = sim.engine.pending()
    relay.on_routing(Routing(0, 2, 0, 1, 0), tx=0, uid=77)
    assert len(relay.queue) == 1
    meta = relay.queue[0]
    assert (meta.uid, meta.source, meta.hop_count) == (77, 0, 1)
    assert relay.prior_forwarders[77] == {0}
    # the Ack arrival at node 0, and the relay's first epoch: it now holds a packet
    assert sim.engine.pending() == before + 2
    assert 1 in sim._tx[sim.engine.now]
    [epoch_at] = [t for t, ev in scheduled(sim) if ev == DecisionEpoch(1)]
    assert epoch_at == relay.offset  # the first grid tick at or after now (0)


def test_duplicate_routing_acked_but_not_requeued():
    sim = br_sim()
    relay = sim.nodes[1]
    relay.on_routing(Routing(0, 2, 0, 1, 0), tx=0, uid=77)
    before = sim.engine.pending()
    relay.on_routing(Routing(0, 2, 0, 1, 0), tx=0, uid=77)
    assert len(relay.queue) == 1  # no phantom copy
    assert sim.engine.pending() == before + 1  # but the Ack went out again


def test_routing_to_destination_delivers():
    sim = br_sim()
    sim._generate_packet(0)
    dst = sim.nodes[2]
    dst.on_routing(Routing(0, 2, 1, 2, 3), tx=1, uid=0)
    assert sim.metrics.outcomes[0] == Outcome(0, 0, True, 4, None, sim.engine.now)
    assert not dst.queue


def test_hop_cap_drops_packet():
    sim = br_sim()
    relay = sim.nodes[1]
    cap = sim.br_params.hard_hop_cap
    sim._generate_packet(0)
    sim._generate_packet(0)
    relay.on_routing(Routing(0, 2, 0, 1, cap), tx=0, uid=0)
    assert sim.metrics.outcomes[0] == Outcome(0, 0, False, None, "hop_cap", sim.engine.now)
    assert not relay.queue
    relay.on_routing(Routing(0, 2, 0, 1, cap - 1), tx=0, uid=1)
    assert len(relay.queue) == 1


# ---- frames built once -------------------------------------------------------------


def on_air(sim):
    """Record every frame put on the air from now on, in order."""
    frames = []
    transmit_at = sim.transmit_at

    def record(at, tx, frame, only_to=None, uid=None):
        frames.append(frame)
        transmit_at(at, tx, frame, only_to, uid)

    sim.transmit_at = record
    return frames


def test_a_node_sends_one_rts_and_one_ack_object():
    sim = br_sim()
    frames = on_air(sim)
    src, relay = sim.nodes[0], sim.nodes[1]
    queue_packet(src)
    src._start_handshake()
    src._start_handshake()  # the retry after a backoff
    relay.on_routing(Routing(0, 2, 0, 1, 0), tx=0, uid=77)
    relay.on_routing(Routing(0, 2, 0, 1, 0), tx=0, uid=77)  # a retransmission
    rts, rts_again, ack, ack_again = frames
    assert rts == SrcBcast(0) and rts_again is rts
    assert ack == Ack(1) and ack_again is ack


def test_a_response_to_one_owner_is_built_once_per_owner():
    sim = br_sim()
    frames = on_air(sim)
    relay = sim.nodes[1]
    relay.on_frame(DstBcast(2), tx=2, uid=None, measured=-61)
    relay._emit_response(0)
    relay._emit_response(0)
    relay._emit_response(2)  # another owner gets its own frame
    relay.on_frame(DstBcast(2), tx=2, uid=None, measured=-61)  # the same reading again
    relay._emit_response(0)
    first, again, other, same_reading = frames
    assert first == Response(0, 1, -61)
    assert again is first and same_reading is first
    assert other == Response(2, 1, -61)


def test_the_destination_beacon_is_one_object_per_run():
    sim = br_sim()
    frames = on_air(sim)
    sim.engine.run_until(2 * sim.br_params.bcast_ms, sim._handle)
    beacons = [f for f in frames if f.type is MessageType.DST_BCAST]
    assert len(beacons) == 3 and beacons[0] == DstBcast(2)
    assert all(b is beacons[0] for b in beacons)


# ---- ACK handling and BEB --------------------------------------------------------


def queue_packet(node, uid=1):
    node.enqueue(PacketMeta(uid, node.id))
    return node.queue[0]


def await_ack(node, target=1):
    """Put the queue head's hop into its ack wait, as sending the Routing frame does."""
    node.in_hop = True
    node.current_target = target
    node._arm("ack", node.sim.engine.now + node.params.ack_wait_ms, ref=node.queue[0].uid)


def test_ack_completes_hop():
    sim = br_sim()
    node = sim.nodes[0]
    pending = queue_packet(node)
    pending.attempts = 2
    await_ack(node)
    node.on_frame(Ack(1), tx=1, uid=None, measured=-50)
    assert not node.queue
    assert not node.in_hop and node._timer is None
    [hop] = sim.metrics.hops
    assert hop.success and hop.attempts == 3
    assert (hop.sender, hop.receiver, hop.uid) == (0, 1, 1)
    assert hop.distance_m == pytest.approx(5.0)


def test_ack_from_wrong_node_ignored():
    sim = br_sim()
    node = sim.nodes[0]
    queue_packet(node)
    await_ack(node)
    node.on_frame(Ack(2), tx=2, uid=None, measured=-50)
    assert node.queue and node._timer.tag == "ack"


def test_ack_during_the_retry_backoff_ignored():
    sim = br_sim()
    node = sim.nodes[0]
    pending = queue_packet(node)
    await_ack(node)
    node.on_timer(node._timer)  # the wait runs out: the hop backs off
    node.on_frame(Ack(1), tx=1, uid=None, measured=-50)  # from the receiver, too late
    assert list(node.queue) == [pending] and pending.attempts == 1
    assert node._timer.tag == "backoff"


def test_beb_windows_double_then_saturate():
    # attempt k draws its delay from [0, 2^min(k, 5)) whole slots
    sim = br_sim()
    node = sim.nodes[0]
    pending = queue_packet(node)
    slot = sim.br_params.slot_ms
    for attempt, slots in [(1, 2), (2, 4), (3, 8), (4, 16), (5, 32), (6, 32), (7, 32), (8, 32)]:
        pending.attempts = attempt - 1
        node.current_target = 1
        node.beb_backoff()
        assert pending.attempts == attempt
        assert node._timer.tag == "backoff"
        (at, ev) = scheduled(sim, "backoff")[-1]
        assert ev.ref == pending.uid
        delay = at - sim.engine.now
        assert delay % slot == 0
        assert 0 <= delay < slots * slot


def test_beb_exhaustion_drops_with_failed_hop():
    sim = br_sim()
    node = sim.nodes[0]
    sim._generate_packet(0)
    pending = node.queue[0]
    pending.attempts = sim.br_params.max_tx_attempts  # 8 failures already
    await_ack(node)
    node.beb_backoff()
    assert sim.metrics.outcomes[0].reason == "max_attempts"
    assert sim.metrics.outcomes[0].time_ms == sim.engine.now
    assert not node.queue
    assert not node.in_hop
    [hop] = sim.metrics.hops
    assert not hop.success
    assert hop.attempts == 9
    assert hop.receiver == 1


def test_beb_exhaustion_without_target_charges_the_shoot():
    sim = br_sim()
    node = sim.nodes[0]
    sim._generate_packet(0)
    pending = node.queue[0]
    pending.attempts = sim.br_params.max_tx_attempts
    node.current_target = None
    node.beb_backoff()
    [hop] = sim.metrics.hops
    assert hop.receiver == node.destination


def test_stale_ack_timer_does_nothing():
    sim = br_sim()
    node = sim.nodes[0]
    pending = queue_packet(node)
    await_ack(node)
    stale = node._timer
    node._arm("ack", sim.engine.now + 9, ref=1)
    node.on_timer(stale)
    assert pending.attempts == 0
    node.on_timer(node._timer)
    assert pending.attempts == 1


def test_ack_timer_ignored_outside_await_ack():
    sim = br_sim()
    node = sim.nodes[0]
    queue_packet(node, uid=1)
    queue_packet(node, uid=2)
    await_ack(node)
    timer = node._timer
    node.on_frame(Ack(1), tx=1, uid=None, measured=-50)  # the Ack ends the hop first
    node.on_timer(timer)
    [waiting] = node.queue
    assert (waiting.uid, waiting.attempts) == (2, 0)
    assert not node.in_hop
    assert scheduled(sim, "backoff") == []


# ---- responder behaviour ----------------------------------------------------------


def test_rts_response_jitter_whole_slots_within_window():
    sim = br_sim()
    relay = sim.nodes[1]
    to_coin(relay, True)
    relay.dst_rssi = -61
    for _ in range(200):
        relay.on_rts(0)
    delays = [t - sim.engine.now for t, ev in scheduled(sim, "respond")]
    assert len(delays) == 200
    slot = sim.br_params.slot_ms
    bound = sim.br_params.response_slot_bound
    assert all(d % slot == 0 and 0 <= d < bound * slot for d in delays)
    # with 200 draws every slot of the window appears (miss odds ~ 8e-10)
    assert {d // slot for d in delays} == set(range(bound))


def test_non_listening_node_stays_silent():
    sim = br_sim()
    relay = sim.nodes[1]
    relay.dst_rssi = -61
    to_coin(relay, False)
    relay.on_rts(0)
    assert scheduled(sim, "respond") == []


def test_node_without_beacon_reading_stays_silent():
    sim = br_sim()
    relay = sim.nodes[1]
    to_coin(relay, True)
    relay.dst_rssi = None
    relay.on_rts(0)
    assert scheduled(sim, "respond") == []


def test_destination_always_responds():
    sim = br_sim()
    dst = sim.nodes[2]
    assert dst.listening is False
    dst.on_rts(1)
    assert len(scheduled(sim, "respond")) == 1


def test_late_response_never_reaches_selection():
    sim = br_sim()
    node = sim.nodes[0]
    offered = []

    def select(meta, responses):
        offered.append(list(responses))
        return 1

    node.select_next_hop = select
    queue_packet(node)
    node._start_handshake()
    node.on_frame(Response(0, 1, -61), tx=1, uid=None, measured=-55)
    node.on_timer(node._timer)  # the window closes: the packet goes to 1
    node.on_frame(Response(0, 1, -58), tx=1, uid=None, measured=-55)  # too late
    node.on_timer(node._timer)  # no Ack: the hop backs off
    node.on_timer(node._timer)  # the retry opens a fresh window
    node.on_timer(node._timer)  # which closes unanswered
    assert offered == [[ResponseRecord(1, -61, -55)], []]


def test_beacon_reading_latest_wins():
    sim = br_sim()
    node = sim.nodes[0]
    node.on_frame(DstBcast(2), tx=2, uid=None, measured=-70)
    assert node.dst_rssi == -70
    node.on_frame(DstBcast(2), tx=2, uid=None, measured=-73)
    assert node.dst_rssi == -73


# ---- epoch coin ---------------------------------------------------------------------


def test_epoch_redraw_is_degenerate_at_extremes():
    sim0 = br_sim(br=BrParams(relay_probability=0.0))
    node = sim0.nodes[0]
    for _ in range(50):
        node.on_epoch()
        assert node.listening is False
    sim1 = br_sim(br=BrParams(relay_probability=1.0))
    node = sim1.nodes[0]
    for _ in range(50):
        node.on_epoch()
        assert node.listening is True


def test_initial_mode_comes_from_the_same_coin():
    assert br_sim(br=BrParams(relay_probability=0.0)).nodes[0].listening is False
    assert br_sim(br=BrParams(relay_probability=1.0)).nodes[0].listening is True
    assert br_sim().nodes[2].listening is False  # destination never listens/relays


def test_transmit_epoch_starts_queued_handshake():
    sim = br_sim(br=BrParams(relay_probability=0.0))
    node = sim.nodes[0]
    queue_packet(node, uid=3)
    assert not node.in_hop
    node.on_epoch()
    assert node.in_hop
    assert 0 in sim._tx[sim.engine.now]  # RTS on the air
    [(at, ev)] = scheduled(sim, "select")
    assert at == sim.engine.now + sim.br_params.response_wait_ms
    assert ev.ref == 3


# ---- the shared hop, under both protocols ---------------------------------------------


def run_to_on_air(sim, node):
    """Run until node's pending frame is on the air; return its on-air tick.

    BR transmits at once. The baseline transmits cca_ms after a clear CCA.
    """
    if sim.protocol == "br":
        return sim.engine.now
    [t] = [t for t, ev in scheduled(sim, "cca") if ev.node == node.id]
    sim.engine.run_until(t, sim._handle)
    return t + sim.csma_params.cca_ms


@pytest.mark.parametrize("protocol", ["br", "aodv"])
def test_hop_waits_run_from_the_on_air_tick(protocol):
    sim = make_sim(LINE3, 2, protocol, channel=SHORT_RANGE, sources=(0,), start_ms=10**9)
    sim.channel_busy = lambda me: False  # every CCA finds the channel clear
    node = sim.nodes[0]
    node.enqueue(PacketMeta(7, 0))  # the baseline starts its handshake here
    if protocol == "br":
        node._start_handshake()  # BR would wait for a transmit epoch
    rts_at = run_to_on_air(sim, node)
    assert node.in_hop and node._timer.tag == "select"
    [(select_at, ev)] = scheduled(sim, "select")
    assert select_at == rts_at + sim.br_params.response_wait_ms
    assert ev.ref == 7

    sim.engine.run_until(select_at, sim._handle)  # the window closes
    routing_at = run_to_on_air(sim, node)
    [record] = sim.metrics.routing_log
    assert (record.time_ms, record.sender, record.uid) == (routing_at, 0, 7)
    assert node._timer.tag == "ack"
    assert node.current_target == record.receiver
    [(ack_at, ev)] = scheduled(sim, "ack")
    assert ack_at == routing_at + sim.br_params.ack_wait_ms
    assert ev.ref == 7


# ---- end-to-end over the real channel ------------------------------------------------


def test_three_node_chain_delivers_via_relay():
    for seed in range(5):
        sim = br_sim(seed=seed, horizon_ms=600_000)
        metrics = sim.run()
        assert metrics.generated == 1
        [outcome] = metrics.outcomes.values()
        assert outcome.delivered, (seed, outcome)
        assert outcome.hops == 2
        assert metrics.route_of(0) == [0, 1, 2]
        assert metrics.mean_perhop_distance() == pytest.approx(5.0)
        for hop in metrics.hops:
            if hop.success:
                assert hop.attempts >= 1


@pytest.mark.parametrize("protocol", ["br", "aodv"])
@pytest.mark.parametrize("ack_wait_ms, acked", [(2, 0), (3, 12)])
def test_an_ack_after_the_ack_wait_is_ignored(protocol, ack_wait_ms, acked):
    # An Ack reaches the sender two ticks after its Routing frame went on the
    # air. With a 2 ms wait it lands on the deadline tick, where the ack timer,
    # scheduled first, has already sent the hop into backoff.
    overrides = ["topology.count=5", "traffic.packets_per_source=3"]
    scenario = load_scenario("tandem12", [*overrides, f"br.ack_wait_ms={ack_wait_ms}"])
    hops = run_scenario(scenario, protocol, 0).hops
    assert len(hops) == 12
    assert sum(hop.success for hop in hops) == acked
