"""Command-line surface: run and sweep subcommands, outputs, exit codes."""

import pytest

import brsim.simulation
from brsim.cli import _parse_node_range, _parse_p_range, main
from brsim.metrics import CSV_HEADER, read_csv

FAST = [
    "--set", "horizon_ms=120000",
    "--set", "traffic.packets_per_source=2",
    "--set", "traffic.start_ms=1000",
]


def run_cli(*argv):
    return main(list(argv))


# ---- argument parsing ----------------------------------------------------------


def test_node_range_parsing():
    assert list(_parse_node_range("5..8")) == [5, 6, 7, 8]
    assert list(_parse_node_range("3..3")) == [3]
    for bad in ("5", "8..5", "1..4", "a..b"):
        with pytest.raises(SystemExit):
            _parse_node_range(bad)


def test_p_range_parsing():
    assert _parse_p_range("0.5..0.9:0.2") == pytest.approx([0.5, 0.7, 0.9])
    assert _parse_p_range("0.73..0.73:0.1") == pytest.approx([0.73])
    for bad in ("0.5..0.9", "0.9..0.5:0.1", "0.1..0.2:0", "x..y:z"):
        with pytest.raises(SystemExit):
            _parse_p_range(bad)


# ---- run subcommand --------------------------------------------------------------


def test_run_writes_hop_files_and_summary(tmp_path, capsys):
    code = run_cli(
        "run", "--scenario", "tandem12", "--seed", "3", "--out", str(tmp_path), *FAST
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "br:" in out and "aodv:" in out
    for proto in ("br", "aodv"):
        tsv = tmp_path / f"tandem12_{proto}_seed3_hops.tsv"
        lines = tsv.read_text().splitlines()
        assert lines[0].startswith("uid\tsender\treceiver")
        assert len(lines) > 1
    rows = read_csv(str(tmp_path / "summary.csv"))
    assert {r.protocol for r in rows} == {"br", "aodv"}
    assert all(r.node_count == 12 and r.seed_count == 1 for r in rows)


def test_run_single_protocol_flag(tmp_path):
    code = run_cli(
        "run", "--scenario", "tandem12", "--protocol", "br",
        "--out", str(tmp_path), *FAST,
    )
    assert code == 0
    assert (tmp_path / "tandem12_br_seed0_hops.tsv").exists()
    assert not (tmp_path / "tandem12_aodv_seed0_hops.tsv").exists()


def test_run_trace_files_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(
            "run", "--scenario", "tandem12", "--protocol", "br", "--seed", "5",
            "--trace", "--out", str(out), *FAST,
        ) == 0
    ta = (a / "tandem12_br_seed5.trace").read_bytes()
    tb = (b / "tandem12_br_seed5.trace").read_bytes()
    assert ta == tb
    assert ta.count(b"\n") > 10


def test_run_missing_scenario_exits_2(tmp_path, capsys):
    assert run_cli("run", "--scenario", "nope", "--out", str(tmp_path)) == 2
    assert "bundled" in capsys.readouterr().err


def test_run_bad_override_exits_2(tmp_path, capsys):
    code = run_cli(
        "run", "--scenario", "tandem12", "--out", str(tmp_path),
        "--set", "channel.warp_factor=9",
    )
    assert code == 2
    assert "unknown field" in capsys.readouterr().err


def test_run_bad_channel_value_exits_2_naming_the_field(tmp_path, capsys):
    code = run_cli(
        "run", "--scenario", "tandem12", "--out", str(tmp_path),
        "--set", "channel.ref_distance_m=0",
    )
    assert code == 2
    assert "ref_distance_m must be positive" in capsys.readouterr().err


def test_run_scenario_file_path(tmp_path):
    doc = tmp_path / "tiny.yaml"
    doc.write_text(
        "horizon_s: 120\n"
        "protocol: br\n"
        "topology: {generator: tandem, count: 3}\n"
        "channel: {tx_range_m: 8.0}\n"
        "traffic: {sources: [0]}\n"
    )
    code = run_cli("run", "--scenario", str(doc), "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "tiny_br_seed0_hops.tsv").exists()


# ---- sweep subcommand --------------------------------------------------------------


def test_node_sweep_writes_single_csv(tmp_path, capsys):
    code = run_cli(
        "sweep", "--scenario", "tandem12", "--nodes", "5..6", "--seeds", "2",
        "--jobs", "1", "--out", str(tmp_path), *FAST,
    )
    assert code == 0
    rows = read_csv(str(tmp_path / "sweep.csv"))
    assert [(r.protocol, r.node_count) for r in rows] == [
        ("aodv", 5), ("aodv", 6), ("br", 5), ("br", 6)
    ]
    assert all(r.seed_count == 2 for r in rows)
    assert "protocol nodes seeds" in capsys.readouterr().out


def test_p_sweep_writes_one_csv_per_value(tmp_path):
    code = run_cli(
        "sweep", "--scenario", "tandem12", "--p", "0.5..0.7:0.2", "--seeds", "1",
        "--jobs", "1", "--protocol", "br", "--out", str(tmp_path), *FAST,
    )
    assert code == 0
    for v in ("0.5", "0.7"):
        rows = read_csv(str(tmp_path / f"sweep_p{v}.csv"))
        assert [(r.protocol, r.seed_count) for r in rows] == [("br", 1)]


def test_node_sweep_requires_generator_topology(tmp_path, capsys):
    code = run_cli(
        "sweep", "--scenario", "motion_testbed", "--nodes", "5..6", "--seeds", "1",
        "--out", str(tmp_path),
    )
    assert code == 2
    assert "generator" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_sweep_without_seeds_is_a_usage_error(tmp_path, capsys, seeds):
    code = run_cli(
        "sweep", "--scenario", "tandem12", "--nodes", "5..5", "--seeds", seeds,
        "--jobs", "1", "--out", str(tmp_path),
    )
    assert code == 2
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--nodes", "1..3"),
        ("--nodes", "x"),
        ("--p", "0.9..0.1:0.1"),
        ("--p", "0.5..1.5:0.5"),
        ("--p", "-0.5..0.5:0.5"),
        ("--p", "0.5..0.5000000002:0.00000000003"),
        ("--p", "0..1:0.0001"),
        ("--p", "0.1..0.2:nan"),
        ("--p", "0.1..0.2:inf"),
    ],
)
def test_sweep_bad_range_is_a_usage_error(tmp_path, capsys, flag, value):
    code = run_cli(
        "sweep", "--scenario", "tandem12", f"{flag}={value}", "--seeds", "1",
        "--jobs", "1", "--out", str(tmp_path),
    )
    assert code == 2
    assert f"error: {flag}: " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_p_grids_keep_their_values():
    assert _parse_p_range("0..1:0.1") == [i / 10 for i in range(11)]
    assert _parse_p_range("0.5..0.9:0.2") == [0.5, 0.7, 0.9]


@pytest.mark.parametrize("topology", ["5", "[1]"])
def test_node_sweep_with_a_malformed_topology_is_a_scenario_error(
    tmp_path, capsys, topology
):
    code = run_cli(
        "sweep", "--scenario", "tandem12", "--nodes", "5..6", "--seeds", "1",
        "--jobs", "1", "--set", f"topology={topology}", "--out", str(tmp_path),
    )
    assert code == 2
    assert "error: topology: expected a mapping" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_sweep_trace_files_named_by_point(tmp_path):
    code = run_cli(
        "sweep", "--scenario", "tandem12", "--nodes", "5..5", "--seeds", "1",
        "--jobs", "1", "--protocol", "br", "--trace", "--out", str(tmp_path), *FAST,
    )
    assert code == 0
    assert (tmp_path / "tandem12_br_n5_seed0.trace").exists()


def test_sweep_error_names_the_run_that_failed(tmp_path, capsys, monkeypatch):
    real = brsim.simulation.run_scenario

    def failing_at_seed_3(scenario, protocol, seed, trace=False):
        if seed == 3:
            raise RuntimeError("injected failure")
        return real(scenario, protocol, seed, trace=trace)

    monkeypatch.setattr(brsim.simulation, "run_scenario", failing_at_seed_3)
    code = run_cli(
        "sweep", "--scenario", "tandem12", "--nodes", "5..5", "--seeds", "5",
        "--jobs", "1", "--protocol", "br", "--out", str(tmp_path), *FAST,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "n5 protocol=br seed=3: injected failure" in err
    assert "seed=0" not in err


def test_summary_csv_header_matches_contract(tmp_path):
    run_cli("run", "--scenario", "tandem12", "--out", str(tmp_path), *FAST)
    first = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert first == ",".join(CSV_HEADER)
