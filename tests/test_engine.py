"""Event loop ordering, trace format, and PRNG reference vectors."""

import io
import math

import pytest

from brsim.engine import (
    COIN_DOMAIN,
    BeaconTick,
    DecisionEpoch,
    Engine,
    FrameArrival,
    PastEventError,
    RngStream,
    TimerFire,
    coin_key,
    derive_stream_seed,
    epoch_coin,
)
from brsim.frame import Ack, DstBcast, Response, Routing, SrcBcast

MASK = (1 << 64) - 1
MASK53 = (1 << 53) - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_splitmix64(z):
    """Typed from the published finalizer; independent of the package code."""
    z = (z + GAMMA) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


# ---- PRNG reference vectors --------------------------------------------------


def test_splitmix64_published_vector():
    # splitmix64 seeded with 0 famously opens e220a8397b1dcdaf, ...
    outs = [reference_splitmix64((i * GAMMA) & MASK) for i in range(3)]
    assert outs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_stream_seed_is_two_splitmix_rounds():
    for run_seed in (0, 1, 42, 0xFFFFFFFFFFFFFFFF):
        for node in (0, 1, 7, 65534):
            mixed = reference_splitmix64(run_seed & MASK)
            mixed = reference_splitmix64(mixed ^ ((node + 1) * GAMMA & MASK))
            expect = mixed or GAMMA
            assert derive_stream_seed(run_seed, node) == expect


def test_stream_seeds_distinct_and_nonzero():
    seen = set()
    for run_seed in (0, 1, 2):
        for node in range(200):
            s = derive_stream_seed(run_seed, node)
            assert s != 0
            seen.add(s)
    assert len(seen) == 600


def test_xorshift64star_hand_derived_first_output():
    # seed 1: x ^= x>>12 leaves 1; x ^= x<<25 gives 0x2000001;
    # x ^= x>>27 leaves 0x2000001; output = 0x2000001 * 0x2545F4914F6CDD1D
    assert (0x2000001 * 0x2545F4914F6CDD1D) & MASK == 0x47E4CE4B896CDD1D
    assert RngStream(1).next_u64() == 0x47E4CE4B896CDD1D


def test_xorshift64star_reference_sequences():
    s = RngStream(1)
    assert [s.next_u64() for _ in range(4)] == [
        0x47E4CE4B896CDD1D,
        0xABCFA6A8E079651D,
        0xB9D10D8FEB731F57,
        0x4DB418A0BB1B019D,
    ]
    s = RngStream(0xDEADBEEF)
    assert [s.next_u64() for _ in range(3)] == [
        0x46151251B681BADA,
        0x7DB211D8263EF2A6,
        0x4BFDEEA98D3B4D52,
    ]


def test_coin_key_is_a_stream_seed_of_the_coin_domain():
    assert COIN_DOMAIN == int.from_bytes(b"BR coins", "big")
    for run_seed in (0, 1, 42, 0xFFFFFFFFFFFFFFFF):
        for node in (0, 1, 7, 65534):
            assert coin_key(run_seed, node) == derive_stream_seed(run_seed ^ COIN_DOMAIN, node)


def test_keyed_coin_reference_vectors():
    key_1 = coin_key(0, 1)
    assert key_1 == 0x7BD190C49CEBBCE6
    # epochs -1..6: splitmix64(key ^ (k mod 2**64)) mod 2**53
    draws = [reference_splitmix64(key_1 ^ (k & MASK)) & MASK53 for k in range(-1, 7)]
    assert draws == [
        0x1B863C5E21856E,
        0x125E989DAEA019,
        0x03AFDA5A3FFAC7,
        0x01085D44099A68,
        0x161A17944AD358,
        0x1B637EFD4012DB,
        0x1DA98B1E07C9E3,
        0x1EE8E7889E7657,
    ]
    threshold = round(0.73 * 2**53)
    coins = [epoch_coin(key_1, k, threshold) for k in range(-1, 7)]
    assert coins == [d < threshold for d in draws]
    assert coins == [False, True, True, True, True, False, False, False]


def test_zero_seed_rejected():
    with pytest.raises(ValueError):
        RngStream(0)


# ---- draw distributions ------------------------------------------------------


def test_randbelow_bounds_and_errors():
    s = RngStream(99)
    assert all(s.randbelow(1) == 0 for _ in range(100))
    for _ in range(1000):
        assert 0 <= s.randbelow(13) < 13
    with pytest.raises(ValueError):
        s.randbelow(0)
    with pytest.raises(ValueError):
        s.randbelow(-5)


def test_randbelow_takes_bounds_up_to_two_to_the_64():
    # at 2**64 every draw is accepted as it is; above, no draw could be
    a, b = RngStream(99), RngStream(99)
    assert [a.randbelow(2**64) for _ in range(3)] == [b.next_u64() for _ in range(3)]
    with pytest.raises(ValueError):
        a.randbelow(2**64 + 1)


@pytest.mark.parametrize("bound", [1, 2, 8, 2**32, 2**64])
def test_a_power_of_two_bound_masks_the_draw(bound):
    # 2**64 is a multiple of the bound, so no draw is rejected: the result is
    # the draw modulo the bound, and each call takes exactly one draw
    seed = derive_stream_seed(7, 1)
    a, b = RngStream(seed), RngStream(seed)
    for _ in range(200):
        assert a.randbelow(bound) == b.next_u64() % bound
    assert a._state == b._state


def _within_four_sigma(hits, n, q):
    return abs(hits - n * q) < 4 * math.sqrt(n * q * (1 - q))


@pytest.mark.parametrize("p", [0.1, 0.73])
def test_keyed_coins_are_unbiased_and_independent(p):
    """200 stations x 1,000 epochs: the listen fraction is p, and two coins
    agree with probability p**2 + (1 - p)**2 whether they are adjacent epochs
    of one station or one epoch of adjacent stations. Pairs are disjoint, so
    that they are independent under the model."""
    threshold = round(p * 2**53)
    stations, epochs = 200, 1000
    coins = [
        [epoch_coin(coin_key(2026, i), k, threshold) for k in range(epochs)]
        for i in range(stations)
    ]
    assert _within_four_sigma(sum(map(sum, coins)), stations * epochs, p)
    agree = p * p + (1 - p) ** 2
    same_station = sum(row[k] == row[k + 1] for row in coins for k in range(0, epochs, 2))
    assert _within_four_sigma(same_station, stations * epochs // 2, agree)
    same_epoch = sum(
        a == b for i in range(0, stations, 2) for a, b in zip(coins[i], coins[i + 1])
    )
    assert _within_four_sigma(same_epoch, stations // 2 * epochs, agree)


def test_randbelow_uniform_within_four_sigma():
    n = 30_000
    s = RngStream(derive_stream_seed(2026, 3))
    counts = [0, 0, 0]
    for _ in range(n):
        counts[s.randbelow(3)] += 1
    sigma = math.sqrt(n * (1 / 3) * (2 / 3))
    for c in counts:
        assert abs(c - n / 3) < 4 * sigma


def test_bernoulli_degenerate_and_errors():
    s = RngStream(7)
    assert not any(s.bernoulli(0.0) for _ in range(1000))
    assert all(s.bernoulli(1.0) for _ in range(1000))
    with pytest.raises(ValueError):
        s.bernoulli(-0.1)
    with pytest.raises(ValueError):
        s.bernoulli(1.1)


def test_bernoulli_half_within_four_sigma():
    n = 20_000
    s = RngStream(derive_stream_seed(11, 5))
    hits = sum(s.bernoulli(0.5) for _ in range(n))
    assert abs(hits - n / 2) < 4 * math.sqrt(n * 0.25)


@pytest.mark.parametrize("seed", [1, 7, derive_stream_seed(2026, 3), derive_stream_seed(0, 12)])
def test_bernoulli_is_the_rejection_sampled_coin_draw_for_draw(seed):
    # the coin once drew randbelow(2**53); 2**64 is a multiple of 2**53, so
    # that loop never rejects and one masked draw must give the same coins
    def old_coin(stream, p):
        return stream.randbelow(1 << 53) < round(p * (1 << 53))

    for p in (0.0, 1e-9, 0.5, 0.73, 1 - 1e-9, 1.0):
        new, old = RngStream(seed), RngStream(seed)
        assert [new.bernoulli(p) for _ in range(10_000)] == [
            old_coin(old, p) for _ in range(10_000)
        ]
        assert new.next_u64() == old.next_u64()


def test_node_streams_do_not_perturb_each_other():
    a = Engine(4)
    alone = [a.draw_uniform(0, 1000) for _ in range(5)]
    b = Engine(4)
    interleaved = []
    for _ in range(5):
        interleaved.append(b.draw_uniform(0, 1000))
        b.draw_uniform(1, 1000)
        b.bernoulli(2, 0.5)
    assert interleaved == alone


# ---- event loop --------------------------------------------------------------


def ignore(ev):
    """A handler for tests that only look at the loop itself."""


def test_same_tick_events_pop_in_schedule_order():
    eng = Engine(0)
    order = []
    for ref in range(5):
        eng.schedule(10, TimerFire(0, "t", ref))
    eng.run_until(10, lambda ev: order.append(ev.ref))
    assert order == [0, 1, 2, 3, 4]


def test_time_ordering_beats_schedule_order():
    eng = Engine(0)
    order = []
    eng.schedule(30, TimerFire(0, "late", 0))
    eng.schedule(10, TimerFire(0, "early", 1))
    eng.run_until(100, lambda ev: order.append(ev.tag))
    assert order == ["early", "late"]


def test_scheduling_into_the_past_raises():
    eng = Engine(0)
    eng.schedule(5, TimerFire(0, "a", 0))
    eng.run_until(5, ignore)
    assert eng.now == 5
    eng.schedule(5, TimerFire(0, "same-tick-ok", 0))
    with pytest.raises(PastEventError):
        eng.schedule(4, TimerFire(0, "b", 0))


def test_run_until_stops_at_horizon():
    eng = Engine(0)
    for t in (1, 2, 50, 99, 101):
        eng.schedule(t, TimerFire(0, "t", t))
    assert eng.run_until(100, ignore) == 4
    assert eng.now == 100
    assert eng.pending() == 1
    assert eng.run_until(101, ignore) == 1
    assert eng.processed == 5


def test_stop_drops_pending_events_and_still_ends_at_horizon():
    eng = Engine(0)
    seen = []

    def handler(ev):
        seen.append(ev.ref)
        if ev.ref == 2:
            eng.stop()

    for t in (1, 2, 3, 4):
        eng.schedule(t, TimerFire(0, "t", t))
    assert eng.run_until(100, handler) == 2
    assert seen == [1, 2]
    assert eng.now == 100
    assert eng.pending() == 0


def test_handler_may_schedule_followups():
    eng = Engine(0)
    seen = []

    def handler(ev):
        seen.append((eng.now, ev.ref))
        if ev.ref < 3:
            eng.schedule(eng.now + 10, TimerFire(0, "t", ev.ref + 1))

    eng.schedule(0, TimerFire(0, "t", 0))
    eng.run_until(1000, handler)
    assert seen == [(0, 0), (10, 1), (20, 2), (30, 3)]


def test_trace_line_format():
    trace = io.StringIO()
    eng = Engine(0, trace=trace)
    eng.schedule(2, BeaconTick(0))
    eng.schedule(2, DecisionEpoch(4))
    eng.schedule(5, TimerFire(3, "x", 7))
    eng.schedule(9, FrameArrival((1,), SrcBcast(5), 5))
    # a burst: one line per receiver, in the order the event carries them
    eng.schedule(10, FrameArrival((2, 6, 11), DstBcast(8), 8))
    eng.schedule(11, FrameArrival((3,), Response(5, 3, -70), 3))
    eng.schedule(12, FrameArrival((4,), Routing(5, 8, 5, 4, 0), 5, uid=9))
    eng.schedule(13, FrameArrival((5,), Ack(4), 4))
    eng.run_until(20, ignore)
    assert trace.getvalue().splitlines() == [
        "2\tbeacon\t0\t-",
        "2\tepoch\t4\t-",
        "5\ttimer\t3\tx:7",
        "9\tarrive\t1\tSRC_BCAST<-5",
        "10\tarrive\t2\tDST_BCAST<-8",
        "10\tarrive\t6\tDST_BCAST<-8",
        "10\tarrive\t11\tDST_BCAST<-8",
        "11\tarrive\t3\tRESPONSE<-3",
        "12\tarrive\t4\tROUTING<-5",
        "13\tarrive\t5\tACK<-4",
    ]
    assert eng.processed == 8
