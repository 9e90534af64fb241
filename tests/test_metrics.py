"""Metrics collection, aggregation math, and the CSV/TSV formats."""

import math

import pytest

from brsim.channel import ChannelParams
from brsim.metrics import (
    Aggregate,
    CSV_HEADER,
    EmptyInputError,
    HopRecord,
    Outcome,
    RunMetrics,
    read_csv,
    summarize,
    write_csv,
    write_hop_trace,
)

from conftest import make_sim, tandem_positions

NO_INTERFERENCE = ChannelParams(tx_range_m=6.0, target_sir_db=-1000.0)


def hop(uid, sender, receiver, distance, success=True, attempts=1, t=100):
    return HopRecord(uid, sender, receiver, t, distance, success, attempts)


def run_with(outcomes=(), hops=(), protocol="br", node_count=5, seed=0, generated=None):
    run = RunMetrics(protocol, node_count, seed)
    for o in outcomes:
        run.outcomes[o.uid] = o
    run.hops.extend(hops)
    run.generated = len(outcomes) if generated is None else generated
    return run


def delivered(uid, hops_taken, source=0, t=500):
    return Outcome(uid, source, True, hops_taken, None, t)


def dropped(uid, reason, source=0, t=500):
    return Outcome(uid, source, False, None, reason, t)


# ---- per-run statistics ------------------------------------------------------


def test_single_delivered_packet_counts_wire_hops_plus_one():
    # source -> a -> b -> destination is three hops
    run = run_with([delivered(0, 3)])
    assert run.mean_hops() == pytest.approx(3.0)
    assert run.delivered_count == 1
    assert run.delivery_ratio() == pytest.approx(1.0)


def test_mean_hops_covers_delivered_only():
    run = run_with([delivered(0, 2), delivered(1, 4), dropped(2, "max_attempts")])
    assert run.mean_hops() == pytest.approx(3.0)
    assert [o.uid for o in run.outcomes.values() if not o.delivered] == [2]
    assert run.drop_reasons() == {"max_attempts": 1}
    assert run.delivery_ratio() == pytest.approx(2 / 3)


def test_mean_hops_none_when_nothing_delivered():
    assert run_with([dropped(0, "hop_cap")]).mean_hops() is None
    assert run_with([]).mean_hops() is None


def test_perhop_distance_covers_successful_hops_only():
    run = run_with(
        hops=[hop(0, 0, 1, 2.0), hop(0, 1, 2, 4.0), hop(1, 0, 3, 9.0, success=False)]
    )
    assert run.mean_perhop_distance() == pytest.approx(3.0)
    assert run_with().mean_perhop_distance() is None


def test_delivery_ratio_with_no_traffic_is_zero():
    assert run_with([], generated=0).delivery_ratio() == 0.0


def test_route_reconstruction_skips_failures_and_other_packets():
    run = run_with(
        hops=[
            hop(7, 0, 5, 1.0, success=False),
            hop(7, 0, 2, 1.0),
            hop(8, 2, 9, 1.0),
            hop(7, 2, 4, 1.0),
            hop(7, 4, 3, 1.0),
        ]
    )
    assert run.route_of(7) == [0, 2, 4, 3]
    assert run.route_of(8) == [2, 9]
    assert run.route_of(99) == []


# ---- aggregation ----------------------------------------------------------------


def test_summarize_requires_input():
    with pytest.raises(EmptyInputError):
        summarize([])
    with pytest.raises(EmptyInputError):
        summarize(iter([]))


def test_summarize_takes_any_iterable_of_runs():
    runs = [run_with([delivered(0, 3)], seed=0), run_with([delivered(0, 5)], seed=1)]
    assert summarize(r for r in runs) == summarize(runs)


def test_summarize_means_of_run_means():
    runs = [
        run_with([delivered(0, 3)], seed=0),
        run_with([delivered(0, 5)], seed=1),
    ]
    [agg] = summarize(runs)
    assert agg.protocol == "br"
    assert agg.node_count == 5
    assert agg.seed_count == 2
    assert agg.mean_hops == pytest.approx(4.0)
    # sample standard deviation of [3, 5]
    assert agg.sd_hops == pytest.approx(math.sqrt(2.0))
    assert agg.delivery_ratio == pytest.approx(1.0)


def test_summarize_identical_runs_have_zero_sd():
    runs = [run_with([delivered(0, 4)], seed=s) for s in range(3)]
    [agg] = summarize(runs)
    assert agg.mean_hops == pytest.approx(4.0)
    assert agg.sd_hops == pytest.approx(0.0)


def test_summarize_single_run_sd_is_zero():
    [agg] = summarize([run_with([delivered(0, 4)])])
    assert agg.sd_hops == pytest.approx(0.0)


def test_summarize_groups_and_sorts_by_protocol_then_size():
    runs = [
        run_with([delivered(0, 2)], protocol="br", node_count=10),
        run_with([delivered(0, 6)], protocol="aodv", node_count=5),
        run_with([delivered(0, 4)], protocol="br", node_count=5),
    ]
    rows = summarize(runs)
    assert [(r.protocol, r.node_count) for r in rows] == [
        ("aodv", 5),
        ("br", 5),
        ("br", 10),
    ]


def test_summarize_skips_undefined_run_means():
    runs = [
        run_with([delivered(0, 3)], seed=0),
        run_with([dropped(0, "max_attempts")], seed=1),  # no hop mean
    ]
    [agg] = summarize(runs)
    assert agg.seed_count == 2
    assert agg.mean_hops == pytest.approx(3.0)
    assert agg.delivery_ratio == pytest.approx(0.5)


def test_summarize_all_undefined_yields_blank_stats():
    [agg] = summarize([run_with([dropped(0, "max_attempts")])])
    assert agg.mean_hops is None
    assert agg.sd_hops is None


# ---- file formats ------------------------------------------------------------------


def test_csv_header_is_stable():
    assert CSV_HEADER == [
        "protocol",
        "node_count",
        "seed_count",
        "mean_hops",
        "sd_hops",
        "mean_perhop_distance_m",
        "sd_perhop_distance_m",
        "delivery_ratio",
    ]


def test_csv_round_trip(tmp_path):
    rows = [
        Aggregate("aodv", 5, 100, 4.25, 0.5, 3.5, 0.125, 0.99),
        Aggregate("br", 5, 100, None, None, None, None, 0.0),
    ]
    path = tmp_path / "summary.csv"
    write_csv(rows, str(path))
    text = path.read_text().splitlines()
    assert text[0] == ",".join(CSV_HEADER)
    assert text[1] == "aodv,5,100,4.250000,0.500000,3.500000,0.125000,0.990000"
    assert text[2] == "br,5,100,,,,,0.000000"
    back = read_csv(str(path))
    assert back == rows


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_csv(str(path))


@pytest.mark.parametrize("row", ["br,5", "br,5,100,,,,,0.0,extra"])
def test_csv_rejects_a_row_of_the_wrong_length(tmp_path, row):
    path = tmp_path / "short.csv"
    path.write_text(",".join(CSV_HEADER) + "\naodv,5,100,,,,,1.0\n" + row + "\n")
    with pytest.raises(ValueError, match=f"data row 2: expected {len(CSV_HEADER)} cells"):
        read_csv(str(path))


def test_empty_aggregate_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], str(path))
    assert path.read_text().splitlines() == [",".join(CSV_HEADER)]
    assert read_csv(str(path)) == []


def test_hop_trace_format(tmp_path):
    run = run_with(hops=[hop(3, 1, 2, 5.0, attempts=2, t=1234)])
    path = tmp_path / "hops.tsv"
    write_hop_trace(run, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "uid\tsender\treceiver\ttime_ms\tdistance_m\tsuccess\tattempts"
    assert lines[1] == "3\t1\t2\t1234\t5.000000\t1\t2"


# ---- invariants on real runs ---------------------------------------------------------


def zero_interference_run(protocol, seed):
    sim = make_sim(
        tandem_positions(8),
        7,
        protocol,
        seed=seed,
        sources=(0,),
        channel=NO_INTERFERENCE,
        packets_per_source=3,
        inter_arrival_ms=90_000,
        horizon_ms=800_000,
    )
    return sim.run()


@pytest.mark.parametrize("protocol", ["br", "aodv"])
def test_real_run_accounting_invariants(protocol):
    for seed in range(3):
        run = zero_interference_run(protocol, seed)
        assert run.generated == 3
        assert len(run.outcomes) == run.generated
        for uid, outcome in run.outcomes.items():
            assert outcome.uid == uid
            if not outcome.delivered:
                continue
            # with no interference every ack arrives, so the delivered hop
            # count equals the packet's successful hop records exactly
            successes = [h for h in run.hops if h.uid == uid and h.success]
            assert outcome.hops == len(successes)
            route = run.route_of(uid)
            assert route[0] == outcome.source
            assert route[-1] == 7
            assert len(route) == outcome.hops + 1
