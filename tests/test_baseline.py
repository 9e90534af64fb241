"""CSMA/CA channel access and the greedy always-on forwarding policy."""

import io

import pytest

from brsim.baseline import CsmaParams
from brsim.channel import ChannelParams
from brsim.engine import TimerFire
from brsim.frame import MessageType, Response, Routing
from brsim.protocol import PacketMeta, ResponseRecord

from conftest import make_sim, tandem_positions

LINE3 = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (10.0, 0.0)}
SHORT_RANGE = ChannelParams(tx_range_m=6.0)


def aodv_sim(seed=0, positions=LINE3, destination=2, **kwargs):
    kwargs.setdefault("channel", SHORT_RANGE)
    kwargs.setdefault("sources", (0,))
    kwargs.setdefault("start_ms", 10**9)  # keep generated traffic out of the way
    return make_sim(positions, destination, "aodv", seed=seed, **kwargs)


def rr(responder, dst_rssi, link_rssi):
    return ResponseRecord(responder, dst_rssi, link_rssi)


def scheduled(sim, tag):
    return [
        (t, ev)
        for t, ev in sim.engine.pending_events()
        if isinstance(ev, TimerFire) and ev.tag == tag
    ]


# ---- next-hop selection ------------------------------------------------------


def test_progress_must_be_strict():
    node = aodv_sim().nodes[0]
    node.dst_rssi = -70
    meta = PacketMeta(1, 0)
    assert node.select_next_hop(meta, [rr(1, -70, -30)]) == node.destination
    assert node.select_next_hop(meta, [rr(1, -69, -90)]) == 1


def test_strongest_link_wins_among_progressing():
    node = aodv_sim().nodes[0]
    node.dst_rssi = -70
    meta = PacketMeta(1, 0)
    # 3 is closer to the destination but 1 has the better link
    assert node.select_next_hop(meta, [rr(1, -69, -40), rr(3, -50, -80)]) == 1


def test_link_tie_breaks_to_lowest_id():
    node = aodv_sim().nodes[0]
    node.dst_rssi = -70
    meta = PacketMeta(1, 0)
    assert node.select_next_hop(meta, [rr(4, -60, -50), rr(3, -65, -50)]) == 3


def test_no_own_reading_means_any_responder_progresses():
    node = aodv_sim().nodes[0]
    node.dst_rssi = None
    meta = PacketMeta(1, 0)
    assert node.select_next_hop(meta, [rr(1, -120, -90)]) == 1


def test_no_responses_means_direct_shot():
    node = aodv_sim().nodes[0]
    node.dst_rssi = -70
    assert node.select_next_hop(PacketMeta(1, 0), []) == node.destination


# ---- CSMA clear-channel procedure ----------------------------------------------


def test_first_backoff_window_spans_eight_slots():
    # BE starts at 3: the first CCA delay is a whole slot in [0, 8) slots
    delays = []
    for seed in range(60):
        sim = aodv_sim(seed=seed)
        node = sim.nodes[1]
        node.send(Response(0, 1, -60), target=0)
        [(t, ev)] = scheduled(sim, "cca")
        delays.append(t - sim.engine.now)
    slot = CsmaParams().slot_ms
    assert all(d % slot == 0 and 0 <= d < 8 * slot for d in delays)
    assert {d // slot for d in delays} == set(range(8))


def record_tx(sim):
    """Log (tick, sender) of every transmission from here on."""
    log = []
    transmit_at = sim.transmit_at

    def logging_transmit_at(at, tx, *args, **kwargs):
        log.append((at, tx))
        transmit_at(at, tx, *args, **kwargs)

    sim.transmit_at = logging_transmit_at
    return log


def tx_ticks(log, node_id):
    return sorted(t for t, tx in log if tx == node_id)


def test_transmission_follows_clear_sample_by_cca_time():
    sim = aodv_sim()
    node = sim.nodes[1]
    log = record_tx(sim)
    node.send(Response(0, 1, -60), target=0)
    [(cca_at, _)] = scheduled(sim, "cca")
    sim.engine.run_until(10_000, sim._handle)
    assert tx_ticks(log, 1) == [cca_at + sim.csma_params.cca_ms]


def test_own_frames_serialize_through_the_idle_gap():
    sim = aodv_sim()
    node = sim.nodes[1]
    node.dst_rssi = -60
    log = record_tx(sim)
    node.send(Response(0, 1, -60), target=0)
    node.send(Response(2, 1, -60), target=2)
    sim.engine.run_until(20_000, sim._handle)
    ticks = tx_ticks(log, 1)
    assert len(ticks) == 2
    # channel is held through tx+1, then a fresh window plus the CCA gap
    assert ticks[1] >= ticks[0] + 1 + sim.csma_params.cca_ms


def test_busy_channel_exhausts_csma_then_backs_off_and_drops():
    trace = io.StringIO()
    sim = aodv_sim(trace=trace, horizon_ms=400_000)
    sim.channel_busy = lambda me: True
    node = sim.nodes[1]
    log = record_tx(sim)
    sim._generate_packet(1)  # packet 0, queued at node 1
    sim.engine.run_until(400_000, sim._handle)
    # every handshake surveys the channel 1 + max_csma_backoffs times, and the
    # initial attempt plus max_tx_attempts retries all abandon the same way
    cca_fires = [ln for ln in trace.getvalue().splitlines() if "\tcca:" in ln]
    assert len(cca_fires) == 9 * (1 + sim.csma_params.max_csma_backoffs)
    assert tx_ticks(log, 1) == []  # the RTS never reached the air
    assert sim.metrics.outcomes[0].reason == "max_attempts"
    [hop] = sim.metrics.hops
    assert not hop.success
    assert hop.attempts == 9
    assert hop.receiver == node.destination  # no target was ever selected


def test_abandoned_response_is_dropped_silently():
    sim = aodv_sim()
    sim.channel_busy = lambda me: True
    node = sim.nodes[1]
    node.dst_rssi = -60
    log = record_tx(sim)
    node.send(Response(0, 1, -60), target=0)
    sim.engine.run_until(100_000, sim._handle)
    assert not node._csma_queue
    assert not node.in_hop
    assert tx_ticks(log, 1) == []
    assert sim.metrics.outcomes == {} and sim.metrics.hops == []


def test_abandoned_routing_charges_its_target():
    sim = aodv_sim()
    sim.channel_busy = lambda me: True
    node = sim.nodes[1]
    sim._generate_packet(1)  # packet 0, queued at node 1
    node.queue[0].attempts = sim.br_params.max_tx_attempts  # this failure is the last
    node._csma_queue.clear()
    node._csma_queue.append((Routing(1, 2, 1, 0, 0), 0, 0))
    node.current_target = 0  # as selecting the receiver would
    node._csma_nb = sim.csma_params.max_csma_backoffs
    node._cca_sample()  # busy once more: the Routing frame is abandoned
    [hop] = sim.metrics.hops
    assert not hop.success
    assert hop.receiver == 0  # the chosen receiver, not the destination
    assert sim.metrics.outcomes[0].reason == "max_attempts"


def test_next_frame_starts_after_an_abandoned_one():
    sim = aodv_sim()
    node = sim.nodes[1]
    node.dst_rssi = -60
    log = record_tx(sim)
    first = Response(0, 1, -60)
    node.send(first, target=0)
    node.send(Response(2, 1, -60), target=2)
    # the channel is busy for as long as the first frame contends
    sim.channel_busy = lambda me: node._csma_queue[0][0] is first
    sim.engine.run_until(100_000, sim._handle)
    assert len(tx_ticks(log, 1)) == 1  # the second frame, after the first gave up
    assert not node._csma_queue


def test_committed_routing_arms_ack_wait_from_the_tx_tick():
    sim = aodv_sim()
    node = sim.nodes[1]
    node.enqueue(PacketMeta(5, 1))
    node._csma_queue.clear()
    node._csma_queue.append((Routing(1, 2, 1, 2, 0), 2, 5))
    node.current_target = 2  # as selecting the receiver would
    node._cca_sample()  # quiet channel: commits now + cca_ms
    tx_at = sim.engine.now + sim.csma_params.cca_ms
    assert node._timer.tag == "ack"
    assert node.current_target == 2
    [(t, ev)] = scheduled(sim, "ack")
    assert t == tx_at + sim.br_params.ack_wait_ms
    assert ev.ref == 5


def test_csma_window_growth_is_capped():
    sim = aodv_sim()
    sim.channel_busy = lambda me: True
    node = sim.nodes[1]
    widths = []
    draw = sim.engine.draw_uniform

    def recording_draw(node_id, bound):
        if node_id == node.id:
            widths.append(bound)
        return draw(node_id, bound)

    sim.engine.draw_uniform = recording_draw
    node.send(Response(0, 1, -60), target=0)
    for _ in range(5):  # the fifth busy CCA abandons the frame
        [(t, ev)] = scheduled(sim, "cca")
        sim.engine.run_until(t, sim._handle)
    assert widths == [8, 16, 32, 32, 32]


# ---- responder policy -----------------------------------------------------------


def test_always_answers_once_it_has_a_beacon_reading():
    sim = aodv_sim()
    node = sim.nodes[1]
    node.on_rts(0)
    assert scheduled(sim, "respond") == []  # no reading yet
    node.dst_rssi = -61
    node.on_rts(0)
    assert len(scheduled(sim, "respond")) == 1


def test_destination_answers_without_a_reading():
    sim = aodv_sim()
    dst = sim.nodes[2]
    dst.on_rts(1)
    assert len(scheduled(sim, "respond")) == 1


# ---- end-to-end -------------------------------------------------------------------


def test_enqueue_starts_handshake_when_idle():
    sim = aodv_sim()
    node = sim.nodes[0]
    node.enqueue(PacketMeta(3, 0))
    assert node.in_hop
    [(frame, _, uid)] = node._csma_queue
    assert frame.type is MessageType.SRC_BCAST and uid == 3


def test_tandem_route_is_seed_independent():
    routes = set()
    for seed in range(5):
        sim = make_sim(
            tandem_positions(4),
            3,
            "aodv",
            seed=seed,
            sources=(0,),
            channel=SHORT_RANGE,
            horizon_ms=600_000,
        )
        metrics = sim.run()
        [outcome] = metrics.outcomes.values()
        assert outcome.delivered
        routes.add(tuple(metrics.route_of(0)))
    assert routes == {(0, 1, 2, 3)}


def test_two_contenders_never_share_a_tick():
    sim = make_sim(
        LINE3,
        2,
        "aodv",
        seed=0,
        sources=(0, 1),
        channel=SHORT_RANGE,
        start_ms=0,
        horizon_ms=600_000,
    )
    log = record_tx(sim)
    metrics = sim.run()
    # the CSMA pacing keeps the two contending senders off each other's ticks
    assert tx_ticks(log, 0) and tx_ticks(log, 1)
    assert not set(tx_ticks(log, 0)) & set(tx_ticks(log, 1))
    assert metrics.delivered_count == 2
