"""Relay-election policy, loop filtering, routing acceptance, ACK/BEB logic."""

import pytest

from brsim.br_node import BrParams
from brsim.channel import ChannelParams
from brsim.engine import TimerFire
from brsim.frame import Ack, DstBcast, Response, Routing
from brsim.protocol import AWAIT_ACK, AWAIT_RESPONSES, BACKOFF, IDLE, PacketMeta, ResponseRecord

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


def scheduled(sim, tag=None):
    events = [(t, ev) for t, _, ev in sorted(sim.engine._heap)]
    if tag is None:
        return events
    return [(t, ev) for t, ev in events if isinstance(ev, TimerFire) and ev.tag == tag]


# ---- forwarder selection -----------------------------------------------------


def test_select_highest_dst_rssi_wins():
    node = br_sim().nodes[0]
    node.dst_rssi = None
    meta = PacketMeta(1, 0, 2)
    assert node.select_next_hop(meta, [rr(1, -70), rr(3, -60)]) == 3


def test_select_tie_breaks_to_lowest_id():
    node = br_sim().nodes[0]
    node.dst_rssi = None
    meta = PacketMeta(1, 0, 2)
    assert node.select_next_hop(meta, [rr(5, -60), rr(3, -60), rr(4, -60)]) == 3


def test_select_ignores_link_strength():
    node = br_sim().nodes[0]
    node.dst_rssi = None
    meta = PacketMeta(1, 0, 2)
    # stronger link must not beat better destination proximity
    assert node.select_next_hop(meta, [rr(1, -60, -30), rr(3, -59, -95)]) == 3


def test_select_shoots_when_own_reading_at_least_best():
    node = br_sim().nodes[0]
    meta = PacketMeta(1, 0, 2)
    node.dst_rssi = -60
    assert node.select_next_hop(meta, [rr(1, -60), rr(3, -65)]) == node.destination
    node.dst_rssi = -59
    assert node.select_next_hop(meta, [rr(1, -60)]) == node.destination
    node.dst_rssi = -61
    assert node.select_next_hop(meta, [rr(1, -60)]) == 1


def test_select_shoots_with_no_responses():
    node = br_sim().nodes[0]
    node.dst_rssi = -70
    assert node.select_next_hop(PacketMeta(1, 0, 2), []) == node.destination


def test_select_winner_invariant_under_rssi_offset():
    node = br_sim().nodes[0]
    node.dst_rssi = None
    meta = PacketMeta(1, 0, 2)
    base = [rr(1, -72), rr(3, -64), rr(4, -64), rr(6, -80)]
    for off in (-13, 0, 13):
        shifted = [rr(r.responder, r.dst_rssi + off) for r in base]
        assert node.select_next_hop(meta, shifted) == 3


# ---- loop filter ---------------------------------------------------------------


def test_loop_filter_inactive_at_threshold():
    node = br_sim().nodes[0]
    node.prior_forwarders[9].add(3)
    meta = PacketMeta(9, 0, 2, hop_count=10)  # == loop_threshold
    assert node.loop_filter(meta, {1, 3, 4}) == {1, 3, 4}


def test_loop_filter_excludes_prior_forwarders_past_threshold():
    node = br_sim().nodes[0]
    node.prior_forwarders[9].update({3, 4})
    meta = PacketMeta(9, 0, 2, hop_count=11)
    assert node.loop_filter(meta, {1, 3, 4}) == {1}


def test_loop_filter_is_per_packet():
    node = br_sim().nodes[0]
    node.prior_forwarders[9].add(3)
    other = PacketMeta(8, 0, 2, hop_count=11)
    assert node.loop_filter(other, {3}) == {3}


def test_all_candidates_filtered_means_shoot():
    node = br_sim().nodes[0]
    node.dst_rssi = None
    node.prior_forwarders[9].update({1, 3})
    meta = PacketMeta(9, 0, 2, hop_count=11)
    assert node.select_next_hop(meta, [rr(1, -50), rr(3, -40)]) == node.destination


# ---- routing acceptance ---------------------------------------------------------


def test_routing_accept_acks_and_enqueues():
    sim = br_sim()
    relay = sim.nodes[1]
    before = sim.engine.pending()
    relay.on_routing(Routing(0, 2, 0, 1, 0), tx=0, uid=77)
    assert len(relay.queue) == 1
    meta = relay.queue[0].meta
    assert (meta.uid, meta.source, meta.dest, meta.hop_count) == (77, 0, 2, 1)
    assert relay.prior_forwarders[77] == {0}
    assert sim.engine.pending() == before + 1  # the Ack arrival at node 0
    assert 1 in sim._tx[sim.engine.now]


def test_routing_for_someone_else_is_ignored():
    sim = br_sim()
    relay = sim.nodes[1]
    before = sim.engine.pending()
    relay.on_routing(Routing(0, 2, 0, 0xBEE, 0), tx=0, uid=5)
    assert not relay.queue
    assert sim.engine.pending() == before


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
    dst = sim.nodes[2]
    dst.on_routing(Routing(0, 2, 1, 2, 3), tx=1, uid=9)
    assert sim._delivered[9] == (4, sim.engine.now)
    assert not dst.queue


def test_hop_cap_drops_packet():
    sim = br_sim()
    relay = sim.nodes[1]
    cap = sim.br_params.hard_hop_cap
    relay.on_routing(Routing(0, 2, 0, 1, cap), tx=0, uid=6)
    assert sim._dropped[6] == ("hop_cap", sim.engine.now)
    assert not relay.queue
    relay.on_routing(Routing(0, 2, 0, 1, cap - 1), tx=0, uid=7)
    assert len(relay.queue) == 1


# ---- ACK handling and BEB --------------------------------------------------------


def queue_packet(node, uid=1):
    node.enqueue(PacketMeta(uid, node.id, node.destination))
    return node.queue[0]


def test_ack_completes_hop():
    sim = br_sim()
    node = sim.nodes[0]
    pending = queue_packet(node)
    pending.attempts = 2
    node.phase = AWAIT_ACK
    node.current_target = 1
    node.on_frame(Ack(1), tx=1, uid=None, measured=-50)
    assert not node.queue
    assert node.phase == IDLE
    [hop] = sim.metrics.hops
    assert hop.success and hop.attempts == 3
    assert (hop.sender, hop.receiver, hop.uid) == (0, 1, 1)
    assert hop.distance_m == pytest.approx(5.0)


def test_ack_from_wrong_node_ignored():
    sim = br_sim()
    node = sim.nodes[0]
    queue_packet(node)
    node.phase = AWAIT_ACK
    node.current_target = 1
    node.on_frame(Ack(2), tx=2, uid=None, measured=-50)
    assert node.queue and node.phase == AWAIT_ACK


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
        assert node.phase == BACKOFF
        (at, ev) = scheduled(sim, "backoff")[-1]
        assert ev.ref == pending.meta.uid
        delay = at - sim.engine.now
        assert delay % slot == 0
        assert 0 <= delay < slots * slot


def test_beb_exhaustion_drops_with_failed_hop():
    sim = br_sim()
    node = sim.nodes[0]
    pending = queue_packet(node, uid=4)
    pending.attempts = sim.br_params.max_tx_attempts  # 8 failures already
    node.phase = AWAIT_ACK
    node.current_target = 1
    node.beb_backoff()
    assert sim._dropped[4] == ("max_attempts", sim.engine.now)
    assert not node.queue
    assert node.phase == IDLE
    [hop] = sim.metrics.hops
    assert not hop.success
    assert hop.attempts == 9
    assert hop.receiver == 1


def test_beb_exhaustion_without_target_charges_the_shoot():
    sim = br_sim()
    node = sim.nodes[0]
    pending = queue_packet(node, uid=4)
    pending.attempts = sim.br_params.max_tx_attempts
    node.current_target = None
    node.beb_backoff()
    [hop] = sim.metrics.hops
    assert hop.receiver == node.destination


def test_stale_ack_timer_does_nothing():
    sim = br_sim()
    node = sim.nodes[0]
    pending = queue_packet(node)
    node.phase = AWAIT_ACK
    node.current_target = 1
    node._arm("ack", sim.engine.now + 5, ref=1)
    stale = node._live["ack"]
    node._arm("ack", sim.engine.now + 9, ref=1)
    node.on_timer("ack", 1, stale)
    assert pending.attempts == 0
    node.on_timer("ack", 1, node._live["ack"])
    assert pending.attempts == 1


def test_ack_timer_ignored_outside_await_ack():
    sim = br_sim()
    node = sim.nodes[0]
    pending = queue_packet(node)
    node._arm("ack", sim.engine.now + 5, ref=1)
    node.phase = IDLE
    node.on_timer("ack", 1, node._live["ack"])
    assert pending.attempts == 0


# ---- responder behaviour ----------------------------------------------------------


def test_rts_response_jitter_whole_slots_within_window():
    sim = br_sim()
    relay = sim.nodes[1]
    relay.listening = True
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
    relay.listening = False
    relay.on_rts(0)
    assert scheduled(sim, "respond") == []


def test_node_without_beacon_reading_stays_silent():
    sim = br_sim()
    relay = sim.nodes[1]
    relay.listening = True
    relay.dst_rssi = None
    relay.on_rts(0)
    assert scheduled(sim, "respond") == []


def test_destination_always_responds():
    sim = br_sim()
    dst = sim.nodes[2]
    assert dst.listening is False
    dst.on_rts(1)
    assert len(scheduled(sim, "respond")) == 1


def test_response_collection_gated_by_phase_and_owner():
    sim = br_sim()
    node = sim.nodes[0]
    node.phase = AWAIT_RESPONSES
    node.on_frame(Response(0, 1, -61), tx=1, uid=None, measured=-55)
    node.on_frame(Response(9, 1, -61), tx=1, uid=None, measured=-55)  # someone else's
    assert node.responses == [ResponseRecord(1, -61, -55)]
    node.phase = IDLE
    node.on_frame(Response(0, 1, -58), tx=1, uid=None, measured=-55)
    assert len(node.responses) == 1


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
    assert node.phase == IDLE
    node.on_epoch()
    assert node.phase == AWAIT_RESPONSES
    assert 0 in sim._tx[sim.engine.now]  # RTS on the air
    [(at, ev)] = scheduled(sim, "select")
    assert at == sim.engine.now + sim.br_params.response_wait_ms
    assert ev.ref == 3


def test_destination_takes_no_epochs():
    sim = br_sim()
    dst = sim.nodes[2]
    dst.on_epoch()
    assert dst.listening is False


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
    node.enqueue(PacketMeta(7, 0, 2))  # the baseline starts its handshake here
    if protocol == "br":
        node._start_handshake()  # BR would wait for a transmit epoch
    rts_at = run_to_on_air(sim, node)
    assert node.phase == AWAIT_RESPONSES
    [(select_at, ev)] = scheduled(sim, "select")
    assert select_at == rts_at + sim.br_params.response_wait_ms
    assert ev.ref == 7

    sim.engine.run_until(select_at, sim._handle)  # the window closes
    routing_at = run_to_on_air(sim, node)
    [record] = sim.metrics.routing_log
    assert (record.time_ms, record.sender, record.uid) == (routing_at, 0, 7)
    assert node.phase == AWAIT_ACK
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
