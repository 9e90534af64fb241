"""Radio model: path loss, rounding, walls, the link table and its verdicts."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from brsim.channel import (
    ChannelParams,
    LinkCache,
    Position,
    Topology,
    WallSegment,
    path_loss,
    rssi,
    segments_intersect,
    sensitivity_dbm,
    wall_attenuation_db,
)
from brsim.scenario import grid_topology, load_scenario

DEFAULTS = ChannelParams()


def topo(positions, destination=0, walls=()):
    return Topology({i: Position(*p) for i, p in enumerate(positions)}, destination, list(walls))


# ---- path loss and RSSI ----------------------------------------------------


def test_path_loss_reference_points():
    # 40 dB at 1 m, exponent 3: +30 dB per decade of distance
    assert path_loss(1.0, DEFAULTS) == pytest.approx(40.0)
    assert path_loss(10.0, DEFAULTS) == pytest.approx(70.0)
    assert path_loss(100.0, DEFAULTS) == pytest.approx(100.0)
    assert path_loss(6.0, DEFAULTS) == pytest.approx(63.34453751150931)
    assert path_loss(30.0, DEFAULTS) == pytest.approx(84.31363764158988)


def test_path_loss_clamps_below_reference_distance():
    assert path_loss(0.5, DEFAULTS) == pytest.approx(40.0)
    assert path_loss(0.0, DEFAULTS) == pytest.approx(40.0)


def test_rssi_whole_dbm_values():
    t = topo([(0.0, 0.0), (10.0, 0.0), (6.0, 0.0), (30.0, 0.0)])
    assert rssi(t.position(0), t.position(1), t, DEFAULTS) == -70
    assert rssi(t.position(0), t.position(2), t, DEFAULTS) == -63
    assert rssi(t.position(0), t.position(3), t, DEFAULTS) == -84
    assert isinstance(rssi(t.position(0), t.position(1), t, DEFAULTS), int)


def test_rssi_half_rounds_toward_positive_infinity():
    t = topo([(0.0, 0.0), (1.0, 0.0)])
    # raw -40.5 dBm must round to -40, raw -41.5 to -41
    assert rssi(t.position(0), t.position(1), t, ChannelParams(ref_loss_db=40.5)) == -40
    assert rssi(t.position(0), t.position(1), t, ChannelParams(ref_loss_db=41.5)) == -41


def test_rssi_symmetric():
    rng = random.Random(7)
    for _ in range(50):
        pts = [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(2)]
        wall = WallSegment(
            Position(rng.uniform(0, 20), rng.uniform(0, 20)),
            Position(rng.uniform(0, 20), rng.uniform(0, 20)),
            rng.uniform(1, 40),
        )
        t = topo(pts, walls=[wall])
        assert rssi(t.position(0), t.position(1), t, DEFAULTS) == rssi(
            t.position(1), t.position(0), t, DEFAULTS
        )
    # a wall's end on the link: the touch test compares float orientations
    # with 0, and those depend on which end of the link comes first
    wall = WallSegment(Position(0.0, 0.3), Position(0.5, 0.5), 20.0)
    t = topo([(1.0, 0.2), (0.0, 0.8)], walls=[wall])
    assert rssi(t.position(0), t.position(1), t, DEFAULTS) == -62
    assert rssi(t.position(1), t.position(0), t, DEFAULTS) == -62
    # ends on a 0.1 m grid touch each other often, and 0.1 is inexact in binary
    for _ in range(10_000):
        a, b, c, d = (Position(rng.randrange(11) / 10, rng.randrange(11) / 10) for _ in range(4))
        walls = [WallSegment(c, d, 20.0)]
        assert wall_attenuation_db(a, b, walls) == wall_attenuation_db(b, a, walls), (a, b, c, d)


def test_topology_destination_must_be_a_node():
    with pytest.raises(ValueError, match="destination 2 not among nodes"):
        topo([(0.0, 0.0), (5.0, 0.0)], destination=2)


# ---- sensitivity and hearing range ------------------------------------------


def test_sensitivity_matches_configured_range():
    assert sensitivity_dbm(DEFAULTS) == -84  # 30 m default
    assert sensitivity_dbm(ChannelParams(tx_range_m=6.0)) == -63


def test_can_hear_boundary_tie_succeeds():
    params = ChannelParams(tx_range_m=6.0)
    link = LinkCache(topo([(0.0, 0.0), (6.0, 0.0), (7.0, 0.0)]), params)
    assert link.can_hear(0, 1)
    assert not link.can_hear(0, 2)
    assert not link.can_hear(0, 0)


# ---- wall intersection -------------------------------------------------------


def exact_segments_intersect(p1, p2, q1, q2):
    """Fraction-arithmetic oracle: straddle test plus collinear overlap."""

    def sub(a, b):
        return (Fraction(a[0]) - Fraction(b[0]), Fraction(a[1]) - Fraction(b[1]))

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    zero = (Fraction(0), Fraction(0))
    d = sub(p2, p1)
    e = sub(q2, q1)
    f = sub(q1, p1)
    denom = cross(d, e)
    if denom != 0:
        t = Fraction(cross(f, e), denom)
        u = Fraction(cross(f, d), denom)
        return 0 <= t <= 1 and 0 <= u <= 1
    # parallel; check collinearity against whichever direction is non-degenerate
    if d == zero and e == zero:
        return tuple(p1) == tuple(q1)
    ref = d if d != zero else e
    if cross(f, ref) != 0:
        return False
    # collinear: project onto the dominant axis and test interval overlap
    axis = 0 if abs(ref[0]) >= abs(ref[1]) else 1
    lo_p, hi_p = sorted((Fraction(p1[axis]), Fraction(p2[axis])))
    lo_q, hi_q = sorted((Fraction(q1[axis]), Fraction(q2[axis])))
    return max(lo_p, lo_q) <= min(hi_p, hi_q)


def test_segment_intersection_matches_exact_oracle():
    rng = random.Random(0x5E6)
    cases = []
    for _ in range(400):
        cases.append(tuple((rng.randrange(7), rng.randrange(7)) for _ in range(4)))
    cases += [
        ((0, 0), (4, 0), (2, 0), (6, 0)),  # collinear overlap
        ((0, 0), (4, 0), (4, 0), (8, 0)),  # collinear endpoint touch
        ((0, 0), (4, 0), (5, 0), (8, 0)),  # collinear disjoint
        ((0, 0), (4, 4), (0, 4), (4, 0)),  # proper cross
        ((0, 0), (4, 4), (2, 2), (6, 0)),  # endpoint on interior
        ((0, 0), (0, 0), (0, 0), (2, 2)),  # degenerate point on segment
        ((1, 1), (1, 1), (2, 2), (3, 3)),  # degenerate point off segment
    ]
    for p1, p2, q1, q2 in cases:
        got = segments_intersect(Position(*p1), Position(*p2), Position(*q1), Position(*q2))
        want = exact_segments_intersect(p1, p2, q1, q2)
        assert got == want, (p1, p2, q1, q2)


def test_wall_attenuation_sums_per_crossing():
    walls = [
        WallSegment(Position(2.0, -1.0), Position(2.0, 1.0), 20.0),
        WallSegment(Position(4.0, -1.0), Position(4.0, 1.0), 15.0),
        WallSegment(Position(9.0, -1.0), Position(9.0, 1.0), 40.0),  # not crossed
    ]
    a, b = Position(0.0, 0.0), Position(6.0, 0.0)
    assert wall_attenuation_db(a, b, walls) == pytest.approx(35.0)
    assert wall_attenuation_db(a, Position(1.0, 0.0), walls) == pytest.approx(0.0)


def test_wall_lowers_rssi_by_its_attenuation():
    wall = WallSegment(Position(5.0, -1.0), Position(5.0, 1.0), 20.0)
    clear = topo([(0.0, 0.0), (10.0, 0.0)])
    blocked = topo([(0.0, 0.0), (10.0, 0.0)], walls=[wall])
    assert rssi(clear.position(0), clear.position(1), clear, DEFAULTS) == -70
    assert rssi(blocked.position(0), blocked.position(1), blocked, DEFAULTS) == -90


# ---- SIR adjudication --------------------------------------------------------


def test_beacon_sir_boundary_tie_passes():
    # rssi -85 against the -95 dBm floor is exactly the 10 dB target
    d = 10.0 ** 1.5
    link = LinkCache(topo([(0.0, 0.0), (d, 0.0)]), DEFAULTS)
    assert link.rssi_of(0, 1) == -85
    assert link.beacon(0, 1, ())
    assert link.beacon_audible(0, 1)


def test_beacon_fails_one_dbm_past_the_target():
    d = 10.0 ** (46.0 / 30.0)  # rounds to -86 dBm
    link = LinkCache(topo([(0.0, 0.0), (d, 0.0)]), DEFAULTS)
    assert link.rssi_of(0, 1) == -86
    assert not link.beacon(0, 1, ())
    assert not link.beacon_audible(0, 1)


def test_beacon_reaches_past_data_range():
    d = 10.0 ** 1.5  # 31.62 m: outside the 30 m data range, SIR still passes
    link = LinkCache(topo([(0.0, 0.0), (d, 0.0)]), DEFAULTS)
    assert not link.can_hear(0, 1)
    assert link.beacon(0, 1, ())
    assert not link.delivery(0, 1, ())
    assert link.hearers[0] == ()
    assert link.beacon_hearers == (1,)  # the destination is 0


def test_delivery_survives_weak_interferer():
    link = LinkCache(topo([(0.0, 0.0), (5.0, 0.0), (100.0, 0.0)]), DEFAULTS)
    assert link.delivery(0, 1, (2,))


def test_delivery_killed_by_close_interferer():
    link = LinkCache(topo([(0.0, 0.0), (5.0, 0.0), (6.0, 0.0)]), DEFAULTS)
    assert link.delivery(0, 1, ())
    assert not link.delivery(0, 1, (2,))


def test_symmetric_collision_kills_both_directions():
    # two transmitters equidistant from a middle receiver: SIR ~ 0 dB each way
    link = LinkCache(topo([(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)]), DEFAULTS)
    assert not link.delivery(0, 1, (2,))
    assert not link.delivery(2, 1, (0,))


# ---- LinkCache ---------------------------------------------------------------


def random_world(rng):
    n = rng.randrange(3, 8)
    positions = [(rng.uniform(0, 40), rng.uniform(0, 10)) for _ in range(n)]
    walls = [
        WallSegment(
            Position(rng.uniform(0, 40), rng.uniform(0, 10)),
            Position(rng.uniform(0, 40), rng.uniform(0, 10)),
            rng.choice([10.0, 20.0, 35.0]),
        )
        for _ in range(rng.randrange(3))
    ]
    return topo(positions, walls=walls)


def oracle(t, params, tx, rx, concurrent):
    """Reference link model straight from the geometry: (rssi, hear, delivery, beacon).

    Power sums run over the interferers in ascending id, the order the
    simulator adds them in.
    """

    def power_mw(a):
        return 10.0 ** (rssi(t.position(a), t.position(rx), t, params) / 10.0)

    r = rssi(t.position(tx), t.position(rx), t, params)
    hear = tx != rx and r >= sensitivity_dbm(params)
    interference = 10.0 ** (params.noise_floor_dbm / 10.0)
    for other in sorted(concurrent):
        interference += power_mw(other)
    sir_ok = power_mw(tx) / interference >= 10.0 ** (params.target_sir_db / 10.0)
    return r, hear, hear and sir_ok, tx != rx and sir_ok


def test_link_cache_matches_module_functions():
    rng = random.Random(0xCACE)
    for _ in range(25):
        t = random_world(rng)
        params = ChannelParams(tx_range_m=rng.choice([6.0, 12.0, 30.0]))
        cache = LinkCache(t, params)
        assert cache.sensitivity == sensitivity_dbm(params)
        ids = sorted(t.nodes)
        for tx in ids:
            for rx in ids:
                others = [o for o in ids if o not in (tx, rx)]
                # the other senders in ascending id, as the simulator passes them
                concurrent = tuple(sorted(o for o in others if rng.random() < 0.5))
                r, hear, delivery, beacon = oracle(t, params, tx, rx, concurrent)
                assert cache.rssi_of(tx, rx) == r
                assert cache.can_hear(tx, rx) == hear
                assert cache.beacon_audible(tx, rx) == oracle(t, params, tx, rx, ())[3]
                assert cache.delivery(tx, rx, concurrent) == delivery
                assert cache.beacon(tx, rx, concurrent) == beacon


def test_hearer_lists_are_the_audible_receivers_in_id_order():
    rng = random.Random(0x4EA2)
    for _ in range(25):
        t = random_world(rng)
        params = ChannelParams(tx_range_m=rng.choice([6.0, 12.0, 30.0]))
        cache = LinkCache(t, params)
        ids = sorted(t.nodes)
        for tx in ids:
            assert list(cache.hearers[tx]) == [rx for rx in ids if cache.can_hear(tx, rx)]
        # the one beacon tuple is the destination's, whichever station that is
        for dst in ids:
            cache = LinkCache(Topology(t.nodes, dst, t.walls), params)
            assert list(cache.beacon_hearers) == [rx for rx in ids if cache.beacon_audible(dst, rx)]


def test_link_cache_beacon_audible_is_quiet_channel_beacon():
    cache = LinkCache(topo([(0.0, 0.0), (10.0 ** 1.5, 0.0), (50.0, 0.0)]), DEFAULTS)
    assert cache.beacon_audible(0, 1) == cache.beacon(0, 1, ())
    assert cache.beacon_audible(0, 2) == cache.beacon(0, 2, ())
    assert not cache.beacon_audible(0, 0)


def reference_table(t, params):
    """The link table built the direct way, as (rssi, hearers, beacon_hearers, verdict).

    `beacon_hearers` is the destination's alone: the only beacon source.

    Every ordered pair gets its own `rssi()` and the linear power of that
    value; the hearer lists and the verdicts are read off those two tables.
    """
    ids = sorted(t.nodes)
    table = {tx: {rx: rssi(t.position(tx), t.position(rx), t, params) for rx in ids} for tx in ids}
    mw = {tx: {rx: 10.0 ** (v / 10.0) for rx, v in row.items()} for tx, row in table.items()}
    noise = 10.0 ** (params.noise_floor_dbm / 10.0)
    target = 10.0 ** (params.target_sir_db / 10.0)
    sens = sensitivity_dbm(params)
    hearers = {tx: tuple(rx for rx in ids if rx != tx and table[tx][rx] >= sens) for tx in ids}
    dst = t.destination
    beacon_hearers = tuple(rx for rx in ids if rx != dst and mw[dst][rx] / noise >= target)

    def verdict(tx, rx, concurrent, gated):
        if tx == rx or (gated and table[tx][rx] < sens):
            return False
        interference = noise
        for other in concurrent:
            interference += mw[other][rx]
        return mw[tx][rx] / interference >= target

    return table, hearers, beacon_hearers, verdict


def sparse_floor(rng):
    """A small floor with sparse ids in shuffled order, and walls that end on links.

    Positions lie on a 0.1 m grid. Each wall has one end at the midpoint of
    two stations, which puts it on their link up to float rounding: the
    geometry where the touch tests' float signs decide the crossing.
    """
    n = rng.randrange(3, 13)
    ids = rng.sample(range(0xFFFF), n)
    nodes = {i: Position(rng.randrange(401) / 10, rng.randrange(101) / 10) for i in ids}
    walls = []
    for _ in range(rng.randrange(1, 4)):
        p, q = (nodes[i] for i in rng.sample(ids, 2))
        end = Position(rng.randrange(401) / 10, rng.randrange(101) / 10)
        walls.append(
            WallSegment(Position((p.x + q.x) / 2, (p.y + q.y) / 2), end, rng.choice([10.0, 20.0]))
        )
    return Topology(nodes, rng.choice(ids), walls)


def table_floors():
    for n in range(2, 16):
        s = load_scenario("tandem12", [f"topology.count={n}"])
        yield pytest.param(s.topology, s.channel, id=f"tandem12_n{n}")
    s = load_scenario("motion_testbed")
    assert s.topology.walls, "motion_testbed lost its walls"
    yield pytest.param(s.topology, s.channel, id="motion_testbed")
    dense = (grid_topology(10, 10, 18.0, 18.0), ChannelParams(tx_range_m=6.0))
    yield pytest.param(*dense, id="dense_grid")
    rng = random.Random(0x5EA1)
    for k in range(40):
        params = ChannelParams(tx_range_m=rng.choice([6.0, 12.0, 30.0]))
        yield pytest.param(sparse_floor(rng), params, id=f"sparse{k}")


@pytest.mark.parametrize("t, params", table_floors())
def test_link_table_equals_the_reference_table(t, params):
    table, hearers, beacon_hearers, verdict = reference_table(t, params)
    link = LinkCache(t, params)
    rng = random.Random(0)
    ids = sorted(t.nodes)
    assert link.hearers == hearers
    assert link.beacon_hearers == beacon_hearers
    for tx in ids:
        for rx in ids:
            assert link.rssi_of(tx, rx) == table[tx][rx] == link.rssi_of(rx, tx)
            others = [o for o in ids if o not in (tx, rx)]
            # the other senders in ascending id, as the simulator passes them
            concurrent = tuple(sorted(rng.sample(others, min(len(others), rng.randrange(4)))))
            assert link.delivery(tx, rx, concurrent) == verdict(tx, rx, concurrent, True)
            assert link.beacon(tx, rx, concurrent) == verdict(tx, rx, concurrent, False)


def test_link_table_memory_per_ordered_pair():
    # one row dict per station holds the pair's int (one shared object per
    # dBm level): at 225 keys CPython 3.11 sizes a dict at 512 index slots of
    # 2 B and 341 entries of 24 B, 9.2 kB or 41 B per key. On this floor a
    # station hears only its ~28 nearest data frames, 8 B each in its hearer
    # tuple, and the destination's one beacon tuple holds 8 B per station:
    # 41 + 1 + headers stays below 48 (42.8 measured). A beacon tuple for
    # every station costs 8 B more, a second dict row of float powers 41 + 24.
    t = grid_topology(15, 15, 28.0, 28.0)  # 2 m spacing
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        link = LinkCache(t, ChannelParams(tx_range_m=6.0))
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(link.hearers) == 225
    assert size / 225**2 < 48, f"{size / 225**2:.1f} B per ordered pair"


def test_verdicts_nest_no_wrapped_link_query(monkeypatch):
    # a profiler wraps every public LinkCache name; a verdict that calls one
    # would be counted and timed twice
    delivery, beacon = LinkCache.delivery, LinkCache.beacon
    entered = []
    for name in ("rssi_of", "can_hear", "beacon_audible", "delivery", "beacon"):
        inner = getattr(LinkCache, name)

        def wrapper(*args, _name=name, _inner=inner, **kwargs):
            entered.append(_name)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(LinkCache, name, wrapper)
    link = LinkCache(topo([(0.0, 0.0), (5.0, 0.0), (10.0, 0.0), (40.0, 0.0)]), DEFAULTS)
    verdicts = [
        verdict(link, tx, rx, concurrent)
        for verdict in (delivery, beacon)
        for tx, rx, concurrent in ((0, 1, ()), (0, 1, (2,)), (1, 3, (0, 2)), (2, 2, ()))
    ]
    assert True in verdicts and False in verdicts
    assert entered == []
