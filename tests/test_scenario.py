"""Scenario documents: bundled files, generators, validation, overrides."""

import json
import math
import os
import re
import subprocess
import sys
import textwrap

import pytest

import brsim
from brsim import cli
from brsim.channel import Position, WallSegment
from brsim.scenario import (
    ParseError,
    ScenarioError,
    TrafficSpec,
    ValidationError,
    apply_overrides,
    build_scenario,
    grid_topology,
    list_bundled,
    load_raw,
    load_scenario,
    parse_document,
    tandem_topology,
)

MINIMAL = {
    "horizon_s": 10,
    "topology": {
        "nodes": [
            {"id": 0, "x": 0.0, "y": 0.0},
            {"id": 1, "x": 5.0, "y": 0.0},
        ],
        "destination": 1,
    },
    "traffic": {"sources": [0]},
}


def minimal(**extra):
    raw = {k: (dict(v) if isinstance(v, dict) else v) for k, v in MINIMAL.items()}
    raw["topology"] = {
        "nodes": [dict(n) for n in MINIMAL["topology"]["nodes"]],
        "destination": 1,
    }
    raw.update(extra)
    return raw


# ---- bundled scenarios ---------------------------------------------------------


def test_bundled_listing():
    assert set(list_bundled()) >= {"motion_testbed", "tandem12"}


def test_tandem12_contents():
    sc = load_scenario("tandem12")
    assert sc.name == "tandem12"
    assert sc.protocol == "both"
    assert sc.horizon_ms == 1_500_000
    assert len(sc.topology.nodes) == 12
    assert sc.topology.destination == 11
    gap = 14.0 / 11
    for i in range(12):
        pos = sc.topology.position(i)
        assert pos.x == pytest.approx(i * gap)
        assert pos.y == pytest.approx(2.05 / 2)
    assert sc.channel.tx_range_m == pytest.approx(6.0)
    assert sc.br.relay_probability == pytest.approx(0.83)
    assert sc.traffic.sources == (0,)
    assert sc.traffic.packets_per_source == 20
    assert sc.traffic.inter_arrival_ms == 60_000
    assert sc.traffic.start_ms == 10_000


def test_motion_testbed_contents():
    sc = load_scenario("motion_testbed")
    assert sc.name == "motion_testbed"
    assert len(sc.topology.nodes) == 10
    assert sc.topology.destination == 0
    assert sc.horizon_ms == 300_000
    assert sc.channel.tx_range_m == pytest.approx(30.0)
    assert sc.br.relay_probability == pytest.approx(0.73)
    [wall] = sc.topology.walls
    assert wall.attenuation_db == pytest.approx(35.0)
    assert wall.a.x == wall.b.x == pytest.approx(2.5)
    # all nine non-destination nodes source one packet each
    assert sc.traffic.sources == tuple(range(1, 10))
    assert sc.traffic.packets_per_source == 1


# ---- generators -----------------------------------------------------------------


def test_tandem_generator_spacing():
    topo = tandem_topology(5)
    assert topo.destination == 4
    xs = [topo.position(i).x for i in range(5)]
    assert xs == pytest.approx([0.0, 3.5, 7.0, 10.5, 14.0])
    assert all(topo.position(i).y == pytest.approx(1.025) for i in range(5))
    with pytest.raises(ValidationError):
        tandem_topology(1)


def test_grid_generator_row_major():
    topo = grid_topology(2, 3, floor_width_m=4.0, floor_length_m=10.0)
    assert len(topo.nodes) == 6
    assert topo.destination == 5
    assert (topo.position(0).x, topo.position(0).y) == (0.0, 0.0)
    assert (topo.position(2).x, topo.position(2).y) == (10.0, 0.0)
    assert (topo.position(3).x, topo.position(3).y) == (0.0, 4.0)
    assert (topo.position(5).x, topo.position(5).y) == (10.0, 4.0)
    with pytest.raises(ValidationError):
        grid_topology(1, 1, 4.0, 10.0)


def test_generated_ids_reach_just_below_the_broadcast_id():
    # 65536 nodes would need id 0xFFFF, the broadcast id: see test_validation_errors
    for topology in (
        {"generator": "tandem", "count": 65535},
        {"generator": "grid", "rows": 3, "cols": 21845},
    ):
        raw = minimal(topology=topology, traffic={"sources": [0]})
        assert max(build_scenario(raw).topology.nodes) == 0xFFFE


def test_generator_via_document():
    raw = minimal()
    raw["topology"] = {"generator": "tandem", "count": 6}
    sc = build_scenario(raw)
    assert len(sc.topology.nodes) == 6
    assert sc.topology.destination == 5
    raw["topology"] = {"generator": "grid", "rows": 2, "cols": 2}
    sc = build_scenario(raw)
    assert len(sc.topology.nodes) == 4
    raw["topology"] = {"generator": "hexagon", "count": 4}
    with pytest.raises(ValidationError, match="unknown generator"):
        build_scenario(raw)
    raw["topology"] = {"generator": "tandem"}
    with pytest.raises(ValidationError, match="count"):
        build_scenario(raw)


# ---- document building -----------------------------------------------------------


def test_minimal_document_defaults():
    sc = build_scenario(minimal(), default_name="fromfile")
    assert sc.name == "fromfile"
    assert sc.protocol == "both"
    assert sc.horizon_ms == 10_000
    assert sc.br.relay_probability == pytest.approx(0.73)
    assert sc.csma.min_backoff_exponent == 3
    assert sc.channel.noise_floor_dbm == pytest.approx(-95.0)
    assert sc.traffic.packets_per_source == 1


def test_walls_merge_into_topology():
    raw = minimal()
    raw["walls"] = [
        {"x1": 1.0, "y1": -1.0, "x2": 1.0, "y2": 1.0},
        {"x1": 2.0, "y1": -1.0, "x2": 2.0, "y2": 1.0, "attenuation_db": 35.0},
    ]
    sc = build_scenario(raw)
    assert len(sc.topology.walls) == 2
    assert sc.topology.walls[0].attenuation_db == pytest.approx(20.0)
    assert sc.topology.walls[1].attenuation_db == pytest.approx(35.0)


def test_sources_all_excludes_destination():
    raw = minimal()
    raw["traffic"] = {"sources": "all"}
    assert build_scenario(raw).traffic.sources == (0,)


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda r: r.update(bogus=1), "unknown top-level field"),
        (lambda r: r.update(horizon_ms=1000), "exactly one"),
        (lambda r: r.pop("horizon_s"), "exactly one"),
        (lambda r: r.update(horizon_s=0), "must be positive"),
        (lambda r: r.update(protocol="tcp"), "protocol"),
        (lambda r: r.update(name="a/b"), "name: 'a/b' cannot be part of a file name"),
        (lambda r: r.update(name="a\0b"), "name: .* cannot be part of a file name"),
        (lambda r: r.update(name=os.sep), "name: .* cannot be part of a file name"),
        (lambda r: r.pop("topology"), "topology: required"),
        (lambda r: r.pop("traffic"), "traffic: required"),
        (lambda r: r["topology"].update(generator="tandem", count=4), "not both"),
        (lambda r: r["topology"].pop("nodes"), "positions or a generator"),
        (lambda r: r["topology"].pop("destination"), "destination: required"),
        (lambda r: r["topology"].update(destination=9), "unknown node"),
        (lambda r: r["topology"]["nodes"].append({"id": 0, "x": 1, "y": 1}), "duplicate"),
        (lambda r: r["topology"]["nodes"].append({"id": 0xFFFF, "x": 1, "y": 1}), "out of range"),
        (lambda r: r["topology"]["nodes"].append({"id": 2, "x": 1}), "missing"),
        (lambda r: r["topology"]["nodes"][0].update(color="red"), "unknown field"),
        (lambda r: r.update(channel={"bogus": 3}), "channel.bogus"),
        (lambda r: r.update(channel={"tx_range_m": "far"}), "expected a number"),
        (lambda r: r.update(channel={"tx_range_m": math.inf}), "finite"),
        (lambda r: r.update(channel={"tx_range_m": 0}), "channel: tx_range_m must be positive"),
        (lambda r: r.update(channel={"ref_distance_m": 0}), "channel: ref_distance_m must be positive"),
        (lambda r: r.update(channel={"ref_distance_m": -1}), "channel: ref_distance_m must be positive"),
        (lambda r: r.update(br={"relay_probability": 1.5}), "relay_probability"),
        (lambda r: r.update(br={"slot_ms": True}), "expected an integer"),
        (lambda r: r.update(br={"slot_ms": 2.5}), "expected an integer"),
        (lambda r: r.update(csma={"max_csma_backoffs": -1}), "csma"),
        (
            lambda r: r.update(csma={"min_backoff_exponent": 6}),
            "csma: backoff exponents must satisfy 0 <= min <= max",
        ),
        (lambda r: r.update(csma={"cca_ms": 0}), "csma: cca_ms must be at least 1 ms"),
        (lambda r: r.update(csma={"slot_ms": 0}), "csma: slot_ms must be at least 1 ms"),
        (lambda r: r.update(br={"epoch_ms": 0}), "br: epoch_ms must be positive"),
        (lambda r: r.update(br={"hard_hop_cap": 0}), "br: hard_hop_cap must be at least 1"),
        (lambda r: r.update(br={"epoch_ms": 2**64 + 1}), r"br: epoch_ms must be at most 2\*\*64"),
        (
            lambda r: r.update(br={"response_slot_bound": 2**64 + 1}),
            r"br: response_slot_bound must be at most 2\*\*64",
        ),
        (
            lambda r: r.update(br={"max_backoff_exponent": 65}),
            "br: max_backoff_exponent must be at most 64",
        ),
        (
            lambda r: r.update(csma={"min_backoff_exponent": 65, "max_backoff_exponent": 65}),
            "csma: max_backoff_exponent must be at most 64",
        ),
        (lambda r: r.update(channel={"tx_power_dbm": 33000}), "channel: tx_power_dbm too high"),
        (
            lambda r: r.update(channel={"noise_floor_dbm": -4000}),
            "channel: noise_floor_dbm out of range",
        ),
        (lambda r: r.update(channel={"target_sir_db": 4000}), "channel: target_sir_db too high"),
        (
            lambda r: r.update(channel={"tx_power_dbm": -40000, "target_sir_db": -4000}),
            "channel: station 0 cannot hold a reading .* out of range for int16: -40061",
        ),
        (lambda r: r.update(csma={"next_hop_metric": "link"}), "csma.next_hop_metric: unknown field"),
        (lambda r: r.update(traffic={"sources": []}), "traffic: sources must not be empty"),
        (
            lambda r: r["traffic"].update(packets_per_source=0),
            "traffic: packets_per_source must be at least 1",
        ),
        (
            lambda r: r["traffic"].update(inter_arrival_ms=0),
            "traffic: inter_arrival_ms must be positive",
        ),
        (lambda r: r["traffic"].update(start_ms=-1), "traffic: start_ms must not be negative"),
        (lambda r: r.update(traffic={"sources": [9]}), "unknown node"),
        (lambda r: r.update(traffic={"sources": [1]}), "cannot source"),
        (lambda r: r.update(traffic={"sources": [0, 0]}), "traffic.sources: duplicate"),
        (lambda r: r.update(traffic={"sources": "some"}), "expected a list or 'all'"),
        (lambda r: r.update(traffic={"sources": [0], "rate": 3}), "unknown field"),
        (lambda r: r.update(walls={"x1": 0}), "expected a list"),
        (lambda r: r.update(walls=[{"x1": 0.0}]), "required"),
        (lambda r: r.update(walls=[{"x1": 0, "y1": 0, "x2": 1, "y2": 1, "z": 2}]), "unknown field"),
        (lambda r: r.update(name=""), "name"),
        (lambda r: r.update(br=0), "br: expected a mapping, got int"),
        (lambda r: r.update(br=False), "br: expected a mapping, got bool"),
        (lambda r: r.update(channel=[]), "channel: expected a mapping"),
        (lambda r: r.update(csma=""), "csma: expected a mapping"),
        (lambda r: r.update(channel={"tx_range_m": 10**400}), "tx_range_m: must be finite"),
        (
            # tx_range_m / ref_distance_m overflows, so the sensitivity is -inf dBm
            lambda r: r.update(channel={"tx_range_m": 1e308, "ref_distance_m": 0.5}),
            "channel: tx_range_m too far for this path loss",
        ),
        (
            lambda r: r.update(topology={"generator": "tandem", "count": 4, "rows": 2}),
            "topology.rows: unknown field",
        ),
        (lambda r: r.update(topology={"generator": "grid", "cols": 3}), "topology.rows: required"),
        (lambda r: r.update(topology={"generator": "ring", "count": 4}), "unknown generator"),
        (
            lambda r: r.update(topology={"generator": "tandem", "count": 65536}),
            "topology.count: tandem needs 2 to 65535 nodes",
        ),
        (
            lambda r: r.update(topology={"generator": "grid", "rows": 256, "cols": 256}),
            "topology.rows x topology.cols: need 2 to 65535 nodes",
        ),
        (
            lambda r: r.update(topology={"generator": "tandem", "count": 2.5}),
            "topology.count: expected an integer",
        ),
        (lambda r: r["topology"].update(nodes={"id": 0}), "topology.nodes: expected a non-empty list"),
        (
            lambda r: r.update(walls=[{"x1": "a", "y1": 0, "x2": 1, "y2": 1}]),
            r"walls\[0\].x1: expected a number",
        ),
        (
            lambda r: r.update(channel={"path_loss_exponent": -400}),
            "channel: path_loss_exponent must be non-negative",
        ),
        (
            lambda r: r.update(channel={"path_loss_exponent": -0.5}),
            "channel: path_loss_exponent must be non-negative",
        ),
        (
            lambda r: r.update(walls=[{"x1": 2, "y1": -1, "x2": 2, "y2": 1, "attenuation_db": -5000}]),
            r"walls\[0\]: attenuation_db must be non-negative",
        ),
        (
            lambda r: r["topology"].update(
                nodes=[
                    {"id": 0, "x": 0.0, "y": 0.0},
                    {"id": 1, "x": 1.0e308, "y": 0.0},
                    {"id": 2, "x": -1.0e308, "y": 0.0},
                ],
                destination=0,
            ),
            "topology: node positions too far apart",
        ),
        (
            lambda r: r.update(
                topology={
                    "generator": "grid",
                    "rows": 2,
                    "cols": 2,
                    "floor_width_m": 1.7e308,
                    "floor_length_m": 1.7e308,
                }
            ),
            "topology: node positions too far apart",
        ),
        (
            # 2·d² over this wall's bounding box overflows; at 1e100 it is finite
            lambda r: r.update(
                walls=[{"x1": 7 - 1e155, "y1": -1e155, "x2": 7 + 1e155, "y2": 1e155}]
            ),
            "walls: stations and wall ends too far apart",
        ),
    ],
)
def test_validation_errors(mutate, message):
    raw = minimal()
    mutate(raw)
    with pytest.raises(ValidationError, match=message):
        build_scenario(raw)


def test_loader_defaults_are_the_callees_defaults():
    raw = minimal()
    raw["topology"] = {"generator": "grid", "rows": 2, "cols": 3}
    raw["walls"] = [{"x1": 1.0, "y1": -1.0, "x2": 1.0, "y2": 1.0}]
    sc = build_scenario(raw)
    assert sc.topology.nodes == grid_topology(2, 3).nodes
    # grid and tandem fill the same default floor
    assert sc.topology.position(5) == Position(14.0, 2.05)
    assert tandem_topology(2).position(1) == Position(14.0, 2.05 / 2)
    [wall] = sc.topology.walls
    assert wall == WallSegment(Position(1.0, -1.0), Position(1.0, 1.0))
    assert sc.traffic == TrafficSpec(sources=(0,))


def test_largest_draw_bounds_and_zero_interference_are_accepted():
    raw = minimal()
    raw["br"] = {"epoch_ms": 2**64, "response_slot_bound": 2**64, "max_backoff_exponent": 64}
    raw["csma"] = {"max_backoff_exponent": 64}
    raw["channel"] = {"target_sir_db": -1000}
    sc = build_scenario(raw)
    assert (sc.br.epoch_ms, sc.csma.max_backoff_exponent) == (2**64, 64)
    assert sc.channel.target_sir_db == -1000


def test_int_fields_accept_integral_floats():
    raw = minimal()
    raw["br"] = {"slot_ms": 20.0}
    assert build_scenario(raw).br.slot_ms == 20


# ---- parsing and overrides ---------------------------------------------------------


def test_parse_document_errors():
    with pytest.raises(ParseError, match="empty"):
        parse_document("")
    with pytest.raises(ParseError):
        parse_document("a: [unclosed")
    for tagged in ("a: !!set foo", "a: !!map [1]"):
        with pytest.raises(ParseError, match="expected a mapping node"):
            parse_document(tagged)
    with pytest.raises(ScenarioError):
        parse_document("- just\n- a list\n")


@pytest.mark.parametrize(
    "text, where",
    [
        ("a: \x01", "line 1, column 4"),
        ("a: 1\nb:\n  c: \x07\n", "line 3, column 6"),
        ("a: 1\r\nb: \x01", "line 2, column 4"),  # one break, as YAML counts it
        ("\x01", "line 1, column 1"),
    ],
)
def test_a_character_yaml_rejects_is_reported_with_its_line_and_column(text, where):
    with pytest.raises(ParseError, match=f"^rd.yaml: {where}: unacceptable character #x"):
        parse_document(text, "rd.yaml")


def test_a_scenario_file_with_a_rejected_character_exits_2(tmp_path, capsys):
    path = tmp_path / "rd.yaml"
    path.write_text("a: \x01\n")
    assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line 1, column 4: unacceptable character #x0001:"
        " special characters are not allowed\n"
    )


DUPLICATE_FREE = "horizon_s: 10\ntraffic: {sources: [0]}\nbr:\n  relay_probability: 0.5\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (DUPLICATE_FREE + "br: {epoch_ms: 1000}\n", "duplicate key 'br' on line 5 (first on line 3)"),
        (DUPLICATE_FREE + "  relay_probability: 0.6\n", "duplicate key 'relay_probability' on line 5"),
        ("traffic: {sources: [0], sources: [1]}\n", "duplicate key 'sources' on line 1"),
    ],
)
def test_a_key_written_twice_in_one_mapping_is_rejected(text, message):
    assert parse_document(DUPLICATE_FREE)["br"] == {"relay_probability": 0.5}
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_document(text)


def test_a_merged_key_may_be_overridden():
    raw = parse_document("base: &b {x: 1, y: 2}\nbr:\n  <<: *b\n  x: 3\n")
    assert raw["br"] == {"x": 3, "y": 2}


def test_overrides_reject_duplicate_keys_and_take_the_last_repeat():
    with pytest.raises(ValidationError, match="bad value"):
        apply_overrides(minimal(), ["br={epoch_ms: 100, epoch_ms: 200}"])
    out = apply_overrides(minimal(), ["br.epoch_ms=100", "br.epoch_ms=200"])
    assert out["br"] == {"epoch_ms": 200}


def test_overrides_set_nested_and_typed_values():
    raw = minimal()
    out = apply_overrides(
        raw,
        [
            "channel.tx_range_m=12.5",
            "br.relay_probability=0.5",
            "traffic.packets_per_source=3",
            "protocol=aodv",
            # exponent forms YAML 1.1 would read as strings
            "channel.path_loss_exponent=6e0",
            "channel.target_sir_db=6.0e0",
            "channel.tx_power_dbm=1e-3",
            "channel.ref_distance_m=.5e1",
            "traffic.inter_arrival_ms=2e3",
        ],
    )
    sc = build_scenario(out)
    assert sc.channel.tx_range_m == pytest.approx(12.5)
    assert sc.br.relay_probability == pytest.approx(0.5)
    assert sc.traffic.packets_per_source == 3
    assert sc.protocol == "aodv"
    assert (sc.channel.path_loss_exponent, sc.channel.target_sir_db) == (6.0, 6.0)
    assert (sc.channel.tx_power_dbm, sc.channel.ref_distance_m) == (0.001, 5.0)
    assert sc.traffic.inter_arrival_ms == 2000
    # the input document is never mutated
    assert "channel" not in raw and "br" not in raw


def test_override_swaps_horizon_spelling():
    raw = minimal()  # declares horizon_s
    sc = build_scenario(apply_overrides(raw, ["horizon_ms=2500"]))
    assert sc.horizon_ms == 2500
    raw2 = apply_overrides(raw, ["horizon_ms=2500"])
    sc2 = build_scenario(apply_overrides(raw2, ["horizon_s=4"]))
    assert sc2.horizon_ms == 4000


def test_override_must_be_assignment():
    with pytest.raises(ValidationError, match="key.path=value"):
        apply_overrides(minimal(), ["nonsense"])
    with pytest.raises(ValidationError, match="is not a mapping"):
        apply_overrides(minimal(), ["horizon_s.deep=1"])
    with pytest.raises(ValidationError, match=r"override 'br.relay_probability=\[0.5': bad value"):
        apply_overrides(minimal(), ["br.relay_probability=[0.5"])


@pytest.mark.parametrize(
    "override, problem",
    [
        ("br={epoch_ms: 1, epoch_ms: 2}", "duplicate key 'epoch_ms' on line 1 (first on line 1)"),
        ("br.relay_probability=[0.5", "expected ',' or ']', but got '<stream end>'"),
        ("x=\x07", "unacceptable character #x0007: special characters are not allowed"),
    ],
)
def test_a_bad_override_value_gives_the_yaml_problem(override, problem):
    with pytest.raises(ValidationError) as err:
        apply_overrides(minimal(), [override])
    assert str(err.value) == f"override {override!r}: bad value: {problem}"


def test_load_raw_bundled_and_missing():
    raw, name = load_raw("tandem12")
    assert name == "tandem12"
    assert raw["topology"]["generator"] == "tandem"
    with pytest.raises(ScenarioError, match="bundled"):
        load_raw("no_such_scenario")


def test_load_raw_from_file(tmp_path):
    p = tmp_path / "mine.yaml"
    p.write_text(
        "horizon_s: 5\n"
        "topology: {generator: tandem, count: 3}\n"
        "traffic: {sources: [0]}\n"
    )
    raw, name = load_raw(str(p))
    assert name == "mine"
    sc = build_scenario(raw, default_name=name)
    assert sc.name == "mine"
    assert len(sc.topology.nodes) == 3


def test_a_directory_does_not_hide_a_bundled_scenario(tmp_path, monkeypatch):
    # `brsim run --scenario tandem12 --out tandem12` leaves such a directory
    (tmp_path / "tandem12").mkdir()
    (tmp_path / "mine").mkdir()
    monkeypatch.chdir(tmp_path)
    assert load_scenario("tandem12").name == "tandem12"
    with pytest.raises(ScenarioError, match="mine: no such file and no bundled scenario"):
        load_raw("mine")


_FIRST_PARSE = textwrap.dedent(
    """
    import json, sys
    from brsim import cli, scenario, simulation

    mapping = {
        "horizon_s": 100,
        "topology": {"generator": "tandem", "count": 4},
        "traffic": {"sources": [0]},
    }
    built = scenario.build_scenario(mapping)
    delivered = simulation.run_scenario(built, "br", 0).delivery_ratio()
    seen = {"delivered": delivered, "yaml_after_run": "yaml" in sys.modules}
    try:
        scenario.parse_document("a: b: c\\n", "bad.yaml")
    except scenario.ParseError as exc:
        seen["first_parse"] = str(exc)
    loaded = scenario.load_scenario("tandem12", ["br.relay_probability=0.5"])
    seen["p"] = loaded.br.relay_probability
    print(json.dumps(seen))
    """
)


def _fresh_python(code: str, stdin: str = "") -> str:
    """Run `code` in a new interpreter that imports this brsim; return its output."""
    src = os.path.dirname(os.path.dirname(brsim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], input=stdin,
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_a_scenario_is_read_from_a_pipe():
    text = "horizon_s: 5\ntopology: {generator: tandem, count: 3}\ntraffic: {sources: [0]}\n"
    code = "from brsim.scenario import load_raw; print(load_raw('/dev/stdin')[0]['horizon_s'])"
    assert _fresh_python(code, stdin=text) == "5\n"


def test_pyyaml_is_imported_by_the_first_parse():
    # a fresh interpreter: this one imported PyYAML long ago
    seen = json.loads(_fresh_python(_FIRST_PARSE))
    assert seen["delivered"] == 1.0
    assert seen["yaml_after_run"] is False
    assert seen["first_parse"] == "bad.yaml: line 1, column 5: mapping values are not allowed here"
    assert seen["p"] == 0.5


def test_a_scenario_file_reads_exponent_forms_as_numbers(tmp_path):
    p = tmp_path / "exp.yaml"
    p.write_text(
        "horizon_s: 1e3\n"
        "topology: {generator: tandem, count: 3}\n"
        "channel: {tx_range_m: 6e0, noise_floor_dbm: -9.5E1}\n"
        "traffic: {sources: [0]}\n"
    )
    sc = load_scenario(str(p))
    assert sc.horizon_ms == 1_000_000
    assert (sc.channel.tx_range_m, sc.channel.noise_floor_dbm) == (6.0, -95.0)
    # a name in exponent form is a number now, and names are strings
    with pytest.raises(ValidationError, match="name: expected a non-empty string"):
        build_scenario(parse_document("name: 1e5\n" + p.read_text()))


def test_load_scenario_with_overrides():
    sc = load_scenario("tandem12", overrides=["topology.count=7", "horizon_ms=60000"])
    assert len(sc.topology.nodes) == 7
    assert sc.horizon_ms == 60_000


def test_traffic_spec_validation():
    with pytest.raises(ValueError):
        TrafficSpec(sources=())
    with pytest.raises(ValueError):
        TrafficSpec(sources=(1,), packets_per_source=0)
    with pytest.raises(ValueError):
        TrafficSpec(sources=(1,), inter_arrival_ms=0)
    with pytest.raises(ValueError):
        TrafficSpec(sources=(1,), start_ms=-1)
