"""Command-line surface: run and sweep subcommands, outputs, exit codes."""

import io
import os
import weakref

import pytest

import brsim.cli
import brsim.engine
import brsim.simulation
from brsim.cli import _parse_node_range, _parse_p_range, main
from brsim.engine import TRACE_LINES, DecisionEpoch
from brsim.metrics import CSV_HEADER, read_csv, summarize
from brsim.scenario import load_scenario
from brsim.simulation import Simulation

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
    assert len(_parse_node_range("2..1001")) == 1000
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


def test_a_trace_file_holds_the_runs_trace_lines_across_write_chunks(tmp_path, monkeypatch):
    whole = io.StringIO()
    Simulation(load_scenario("tandem12", list(FAST[1::2])), "aodv", 5, trace=whole).run()
    lines = whole.getvalue().splitlines()
    assert len(lines) < brsim.engine._TRACE_CHUNK and len(lines) % 5  # one write here
    monkeypatch.setattr(brsim.engine, "_TRACE_CHUNK", 5)  # many writes, the last one short
    assert run_cli(
        "run", "--scenario", "tandem12", "--protocol", "aodv", "--seed", "5",
        "--trace", "--out", str(tmp_path), *FAST,
    ) == 0
    text = (tmp_path / "tandem12_aodv_seed5.trace").read_text(encoding="utf-8")
    assert text == whole.getvalue()


def test_a_failed_run_keeps_its_trace_up_to_the_failing_event(tmp_path, capsys, monkeypatch):
    scenario = load_scenario("tandem12", list(FAST[1::2]))
    whole = io.StringIO()
    Simulation(scenario, "br", 5, trace=whole).run()
    epochs = 0
    failed_at = []

    def failing_epoch(sim, ev):
        nonlocal epochs
        epochs += 1
        if epochs == 20:
            failed_at.extend(TRACE_LINES[DecisionEpoch](sim.engine.now, ev))
            raise RuntimeError("injected failure")
        sim.nodes[ev.node].on_epoch()

    monkeypatch.setitem(brsim.simulation._DISPATCH, DecisionEpoch, failing_epoch)
    monkeypatch.setattr(brsim.engine, "_TRACE_CHUNK", 64)
    code = run_cli(
        "run", "--scenario", "tandem12", "--protocol", "br", "--seed", "5",
        "--trace", "--out", str(tmp_path), *FAST,
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "error: scenario=tandem12 protocol=br seed=5: injected failure\n"
    )
    lines = (tmp_path / "tandem12_br_seed5.trace").read_text(encoding="utf-8").splitlines()
    assert lines[-1] == failed_at[0]
    assert lines == whole.getvalue().splitlines()[: len(lines)]
    assert len(lines) > 64  # written in more than one chunk


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


@pytest.mark.parametrize(
    "override, message",
    [
        ("br.relay_probability=[0.5", "bad value"),
        ("topology.count=65536", "topology.count: tandem needs 2 to 65535 nodes"),
        ("br.epoch_ms=100000000000000000000000", "br: epoch_ms must be at most 2**64"),
        ("channel.tx_power_dbm=33000", "channel: tx_power_dbm too high"),
        ("channel.path_loss_exponent=-400", "channel: path_loss_exponent must be non-negative"),
        ("name=a/b", "name: 'a/b' cannot be part of a file name"),
        ('name="a\\0b"', "name: 'a\\x00b' cannot be part of a file name"),
        (".x=1", "override '.x=1': key segment 1 of '.x' is empty"),
        ("br..slot_ms=5", "override 'br..slot_ms=5': key segment 2 of 'br..slot_ms' is empty"),
        ("br.slot_ms.=5", "override 'br.slot_ms.=5': key segment 3 of 'br.slot_ms.' is empty"),
    ],
)
def test_run_rejects_the_document_before_running(tmp_path, capsys, override, message):
    code = run_cli("run", "--scenario", "tandem12", "--out", str(tmp_path), "--set", override)
    assert code == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "override, problem",
    [
        ("br={epoch_ms: 1, epoch_ms: 2}", "duplicate key 'epoch_ms' on line 1 (first on line 1)"),
        ("br.relay_probability=[0.5", "expected ',' or ']', but got '<stream end>'"),
        ("br={[1]: 2}", "found unhashable key"),
    ],
)
def test_a_bad_override_value_exits_2_with_its_yaml_problem(tmp_path, capsys, override, problem):
    code = run_cli("run", "--scenario", "tandem12", "--out", str(tmp_path), "--set", override)
    assert code == 2
    assert f"bad value: {problem}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--protocol", "br"],
        ["sweep", "--nodes", "5..5", "--seeds", "1", "--jobs", "1", "--trace"],
    ],
)
def test_a_name_too_long_for_a_file_fails_before_any_run(
    tmp_path, capsys, monkeypatch, command
):
    started = []
    monkeypatch.setattr(brsim.cli, "run_many", lambda *a, **k: started.append(a))
    code = run_cli(
        *command, "--scenario", "tandem12", "--out", str(tmp_path), "--set", "name=" + "a" * 300
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: name: too long for a file name")
    assert started == []
    assert os.listdir(tmp_path) == []


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


def test_run_scenario_file_with_a_duplicated_key_exits_2(tmp_path, capsys):
    doc = tmp_path / "twice.yaml"
    doc.write_text(
        "horizon_s: 120\n"
        "topology: {generator: tandem, count: 3}\n"
        "traffic: {sources: [0]}\n"
        "br: {relay_probability: 0.5}\n"
        "br: {epoch_ms: 1000}\n"
    )
    code = run_cli("run", "--scenario", str(doc), "--out", str(tmp_path))
    assert code == 2
    assert "duplicate key 'br' on line 5" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["twice.yaml"]


@pytest.mark.parametrize(
    "document, problem",
    [
        (b"horizon_s: 120\nbr: [1\n", "line 3, column 1: expected ',' or ']', but got '<stream end>'"),
        (b"horizon_s: [1, 2\ntraffic: {}\n", "line 2, column 8: expected ',' or ']', but got ':'"),
        (b"? [1, 2]\n: 3\n", "line 1, column 3: found unhashable key"),
        (b"name: x\n\xff\xfe: 1\n", "line 2, column 1: byte 0xff is not UTF-8 (invalid start byte)"),
        # a form feed is no line break to YAML, though str.splitlines takes it for one
        (b"a: 1\x0c\nb: \xc3(\n", "line 2, column 4: byte 0xc3 is not UTF-8 (invalid continuation byte)"),
    ],
)
def test_a_bad_scenario_file_exits_2_with_one_line_naming_the_file(
    tmp_path, capsys, document, problem
):
    doc = tmp_path / "bad.yaml"
    doc.write_bytes(document)
    code = run_cli("run", "--scenario", str(doc), "--out", str(tmp_path))
    assert code == 2
    assert capsys.readouterr().err == f"error: {doc}: {problem}\n"
    assert os.listdir(tmp_path) == ["bad.yaml"]


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


def test_node_sweep_on_a_grid_topology_is_a_usage_error(tmp_path, capsys):
    code = run_cli(
        "sweep", "--scenario", "tandem12", "--nodes", "5..6", "--seeds", "1",
        "--set", "topology={generator: grid, rows: 2, cols: 3}", "--out", str(tmp_path),
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --nodes sweeps need a tandem generator topology, not the grid generator\n"
    )
    assert not list(tmp_path.iterdir())


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
        ("--nodes", "2..1002"),
        ("--nodes", "2..100000000"),
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


def test_pooled_sweep_writes_the_trace_files_of_a_serial_one(tmp_path):
    files = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert run_cli(
            "sweep", "--scenario", "tandem12", "--nodes", "5..6", "--seeds", "2",
            "--jobs", jobs, "--trace", "--out", str(out), *FAST,
        ) == 0
        files[jobs] = {path.name: path.read_bytes() for path in out.glob("*.trace")}
    assert len(files["1"]) == 2 * 2 * 2
    assert all(files["1"].values())
    assert files["2"] == files["1"]


def test_traced_sweep_summarizes_runs_whose_traces_are_written_and_dropped(
    tmp_path, monkeypatch
):
    summarized = []

    def recording(runs):
        runs = list(runs)
        summarized.extend(runs)
        return summarize(runs)

    monkeypatch.setattr(brsim.cli, "summarize", recording)
    code = run_cli(
        "sweep", "--scenario", "tandem12", "--nodes", "5..5", "--seeds", "2",
        "--jobs", "1", "--protocol", "br", "--trace", "--out", str(tmp_path), *FAST,
    )
    assert code == 0
    assert [r.seed for r in summarized] == [0, 1]
    assert all(r.trace is None for r in summarized)
    for r in summarized:
        assert (tmp_path / f"tandem12_br_n5_seed{r.seed}.trace").stat().st_size > 0


@pytest.mark.parametrize("jobs", [0, (os.cpu_count() or 1) + 1], ids=["zero", "above_cpu_count"])
def test_sweep_jobs_outside_one_to_cpu_count_is_a_usage_error(tmp_path, capsys, jobs):
    # two jobs at most, so a broken bound still cannot start more processes
    code = run_cli(
        "sweep", "--scenario", "tandem12", "--nodes", "5..5", "--seeds", "1",
        "--jobs", str(jobs), "--out", str(tmp_path / "out"), *FAST,
    )
    assert code == 2
    assert "error: --jobs: " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_sweep_error_names_the_run_that_failed(tmp_path, capsys, monkeypatch):
    real = brsim.simulation.run_scenario

    def failing_at_seed_3(scenario, protocol, seed, trace_path=None):
        if seed == 3:
            raise RuntimeError("injected failure")
        return real(scenario, protocol, seed, trace_path)

    monkeypatch.setattr(brsim.simulation, "run_scenario", failing_at_seed_3)
    code = run_cli(
        "sweep", "--scenario", "tandem12", "--nodes", "5..5", "--seeds", "5",
        "--jobs", "1", "--protocol", "br", "--out", str(tmp_path), *FAST,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "n5 protocol=br seed=3: injected failure" in err
    assert "seed=0" not in err
    assert not (tmp_path / "sweep.csv").exists()


def test_p_sweep_failing_in_its_second_value_writes_no_sheet(tmp_path, capsys, monkeypatch):
    real = brsim.simulation.run_scenario

    def failing_at_p_07(scenario, protocol, seed, trace_path=None):
        if scenario.br.relay_probability == 0.7:
            raise RuntimeError("injected failure")
        return real(scenario, protocol, seed, trace_path)

    monkeypatch.setattr(brsim.simulation, "run_scenario", failing_at_p_07)
    code = run_cli(
        "sweep", "--scenario", "tandem12", "--p", "0.5..0.9:0.2", "--seeds", "2",
        "--jobs", "1", "--protocol", "br", "--out", str(tmp_path), *FAST,
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: scenario=tandem12 p0.7 protocol=br seed=0: injected failure\n"
    )
    assert captured.out == ""
    assert not list(tmp_path.glob("sweep_p*.csv"))


def test_run_with_a_failing_protocol_reports_it_once_and_writes_no_summary(
    tmp_path, capsys, monkeypatch
):
    real = brsim.simulation.run_scenario

    def failing_aodv(scenario, protocol, seed, trace_path=None):
        if protocol == "aodv":
            raise RuntimeError("injected failure")
        return real(scenario, protocol, seed, trace_path)

    monkeypatch.setattr(brsim.simulation, "run_scenario", failing_aodv)
    code = run_cli(
        "run", "--scenario", "tandem12", "--seed", "3", "--out", str(tmp_path), *FAST
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: scenario=tandem12 protocol=aodv seed=3: injected failure\n"
    )
    assert captured.out.startswith("br: generated=")
    assert "aodv" not in captured.out
    assert (tmp_path / "tandem12_br_seed3_hops.tsv").exists()
    assert not (tmp_path / "tandem12_aodv_seed3_hops.tsv").exists()
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("jobs", [1, min(2, os.cpu_count() or 1)], ids=["serial", "pooled"])
def test_sweep_keeps_no_finished_run(tmp_path, monkeypatch, jobs):
    real_run_many = brsim.cli.run_many
    real_write_csv = brsim.cli.write_csv
    yielded = []
    alive_at_first_write = []

    def tracking(job_list, max_workers=1):
        for run in real_run_many(job_list, max_workers=max_workers):
            yielded.append(weakref.ref(run))
            yield run

    def checking(rows, path):
        if not alive_at_first_write:
            alive_at_first_write.append(sum(ref() is not None for ref in yielded))
        real_write_csv(rows, path)

    monkeypatch.setattr(brsim.cli, "run_many", tracking)
    monkeypatch.setattr(brsim.cli, "write_csv", checking)
    code = run_cli(
        "sweep", "--scenario", "tandem12", "--nodes", "5..6", "--seeds", "3",
        "--jobs", str(jobs), "--out", str(tmp_path), *FAST,
    )
    assert code == 0
    assert len(yielded) == 2 * 2 * 3
    assert alive_at_first_write == [0]


def test_summary_csv_header_matches_contract(tmp_path):
    run_cli("run", "--scenario", "tandem12", "--out", str(tmp_path), *FAST)
    first = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert first == ",".join(CSV_HEADER)
