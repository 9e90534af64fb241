"""Scenario documents: schema, validation, topology generators, bundled files.

A scenario is a YAML mapping with these sections (all optional unless noted):

    name: tandem12
    protocol: both            # br | aodv | both
    horizon_s: 1500           # or horizon_ms; required, > 0
    topology:                 # required: explicit nodes or a generator
      generator: tandem       # tandem | grid
      count: 12
      floor_width_m: 2.05
      floor_length_m: 14.0
      # or explicit placement:
      # destination: 0
      # nodes: [{id: 0, x: 1.0, y: 3.2}, ...]
    walls:
      - {x1: 2.5, y1: 1.2, x2: 2.5, y2: 4.05, attenuation_db: 35.0}
    channel: {...}            # ChannelParams fields
    br: {...}                 # BrParams fields
    csma: {...}               # CsmaParams fields
    traffic:                  # required
      sources: all            # or a list of node ids, destination excluded
      packets_per_source: 1
      inter_arrival_ms: 60000
      start_ms: 0

Each section is validated against the signature of the callee it feeds (see
`_build`), so its keys and defaults are that callee's parameters: the
dataclasses above, `tandem_topology`/`grid_topology`, `_node` and `_wall`.

Dotted overrides ("br.relay_probability=0.5") are applied to the raw mapping
before validation, so every parameter reachable in the document is reachable
from the command line as well.
"""

from __future__ import annotations

import copy
import functools
import inspect
import math
import os
import re
from dataclasses import dataclass, fields, replace
from importlib import resources

from .baseline import CsmaParams
from .br_node import BrParams
from .channel import ChannelParams, Position, Topology, WallSegment, rssi
from .frame import BROADCAST_ID, Response


class ScenarioError(Exception):
    """Base for scenario loading failures."""


class ParseError(ScenarioError):
    """The document is not well-formed YAML."""


class ValidationError(ScenarioError):
    """The document parsed but a field is missing, unknown, or invalid."""


@dataclass(frozen=True)
class TrafficSpec:
    sources: tuple[int, ...]
    packets_per_source: int = 1
    inter_arrival_ms: int = 60000
    start_ms: int = 0

    def __post_init__(self) -> None:
        if not self.sources:
            raise ValueError("sources must not be empty")
        if self.packets_per_source < 1:
            raise ValueError("packets_per_source must be at least 1")
        if self.inter_arrival_ms < 1:
            raise ValueError("inter_arrival_ms must be positive")
        if self.start_ms < 0:
            raise ValueError("start_ms must not be negative")


@dataclass(frozen=True)
class Scenario:
    name: str
    protocol: str
    horizon_ms: int
    topology: Topology
    channel: ChannelParams
    br: BrParams
    csma: CsmaParams
    traffic: TrafficSpec


# ---- topology generators ---------------------------------------------------

_FLOOR_WIDTH_M = 2.05
_FLOOR_LENGTH_M = 14.0


def tandem_topology(
    count: int, floor_width_m: float = _FLOOR_WIDTH_M, floor_length_m: float = _FLOOR_LENGTH_M
) -> Topology:
    """Equally spaced line along the floor centerline, ends are source/destination."""
    if not 2 <= count <= BROADCAST_ID:  # ids run from 0, below the broadcast id
        raise ValidationError(f"topology.count: tandem needs 2 to {BROADCAST_ID} nodes")
    y = floor_width_m / 2.0
    step = floor_length_m / (count - 1)
    nodes = {i: Position(i * step, y) for i in range(count)}
    return Topology(nodes=nodes, destination=count - 1)


def grid_topology(
    rows: int,
    cols: int,
    floor_width_m: float = _FLOOR_WIDTH_M,
    floor_length_m: float = _FLOOR_LENGTH_M,
) -> Topology:
    """rows x cols lattice filling the floor, destination in the last corner."""
    if rows < 1 or cols < 1 or not 2 <= rows * cols <= BROADCAST_ID:
        raise ValidationError(f"topology.rows x topology.cols: need 2 to {BROADCAST_ID} nodes")
    dx = floor_length_m / (cols - 1) if cols > 1 else 0.0
    dy = floor_width_m / (rows - 1) if rows > 1 else 0.0
    nodes = {}
    for r in range(rows):
        for c in range(cols):
            nodes[r * cols + c] = Position(c * dx, r * dy)
    return Topology(nodes=nodes, destination=rows * cols - 1)


_GENERATORS = {"tandem": tandem_topology, "grid": grid_topology}


# ---- section builders --------------------------------------------------------


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: expected a mapping, got {type(value).__name__}")
    return value


def _coerce(value, target, where: str):
    """Check a value for an `int` or `float` target; other targets take it as is."""
    if target is not int and target is not float:
        return value
    expected = "an integer" if target is int else "a number"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: expected {expected}, got {value!r}")
    if target is int:
        if isinstance(value, float) and not value.is_integer():
            raise ValidationError(f"{where}: expected an integer, got {value!r}")
        return int(value)
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{where}: must be finite, got {value!r}")
    return value


@functools.cache
def _schema(target):
    return inspect.signature(target, eval_str=True).parameters


def _build(target, section, where: str):
    """Call `target` with the entries of the mapping `section` as arguments.

    The schema is the signature of `target`: every key must name one of its
    parameters, a parameter without a default is required, and values for
    `int` and `float` parameters are coerced. A ValueError raised by
    `target` becomes a ValidationError naming the section.
    """
    section = _require_mapping(section, where)
    params = _schema(target)
    for key in section:
        if key not in params:
            raise ValidationError(f"{where}.{key}: unknown field")
    kwargs = {}
    for name, param in params.items():
        if name in section:
            kwargs[name] = _coerce(section[name], param.annotation, f"{where}.{name}")
        elif param.default is param.empty:
            raise ValidationError(f"{where}.{name}: required field missing")
    try:
        return target(**kwargs)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _node(id: int, x: float, y: float) -> tuple[int, Position]:
    if not 0 <= id < BROADCAST_ID:
        raise ValueError(f"id out of range: {id}")
    return id, Position(x, y)


def _placement(nodes: list, destination: int) -> Topology:
    """Explicit node positions: the topology section without a generator."""
    if not isinstance(nodes, list) or not nodes:
        raise ValidationError("topology.nodes: expected a non-empty list")
    placed: dict[int, Position] = {}
    for i, entry in enumerate(nodes):
        nid, pos = _build(_node, entry, f"topology.nodes[{i}]")
        if nid in placed:
            raise ValidationError(f"topology.nodes[{i}].id: duplicate id {nid}")
        placed[nid] = pos
    if destination not in placed:
        raise ValidationError(f"topology.destination: unknown node {destination}")
    return Topology(nodes=placed, destination=destination)


def _wall(
    x1: float, y1: float, x2: float, y2: float,
    attenuation_db: float = WallSegment.attenuation_db,
) -> WallSegment:
    return WallSegment(Position(x1, y1), Position(x2, y2), attenuation_db)


def _build_topology(section) -> Topology:
    section = _require_mapping(section, "topology")
    if "generator" not in section:
        if "nodes" not in section:
            raise ValidationError("topology: needs node positions or a generator")
        return _build(_placement, section, "topology")
    if "nodes" in section:
        raise ValidationError("topology: give either nodes or a generator, not both")
    params = dict(section)
    kind = params.pop("generator")
    if kind not in _GENERATORS:
        raise ValidationError(f"topology.generator: unknown generator {kind!r}")
    return _build(_GENERATORS[kind], params, "topology")


def _build_walls(section) -> list[WallSegment]:
    if section is None:
        return []
    if not isinstance(section, list):
        raise ValidationError("walls: expected a list")
    return [_build(_wall, entry, f"walls[{i}]") for i, entry in enumerate(section)]


def _build_traffic(section, topology: Topology) -> TrafficSpec:
    section = _require_mapping(section, "traffic")
    if "sources" in section:
        section = {**section, "sources": _sources(section["sources"], topology)}
    return _build(TrafficSpec, section, "traffic")


def _sources(raw, topology: Topology) -> tuple[int, ...]:
    if raw == "all":
        return tuple(nid for nid in sorted(topology.nodes) if nid != topology.destination)
    if not isinstance(raw, list):
        raise ValidationError("traffic.sources: expected a list or 'all'")
    sources = tuple(_coerce(s, int, f"traffic.sources[{i}]") for i, s in enumerate(raw))
    seen = set()
    for s in sources:
        if s in seen:
            raise ValidationError(f"traffic.sources: duplicate node {s}")
        seen.add(s)
        if s not in topology.nodes:
            raise ValidationError(f"traffic.sources: unknown node {s}")
        if s == topology.destination:
            raise ValidationError(f"traffic.sources: destination {s} cannot source")
    return sources


# the Scenario fields plus the alternative horizon spelling and the walls,
# which join the topology
_TOP_KEYS = {f.name for f in fields(Scenario)} | {"horizon_s", "walls"}


def build_scenario(raw: dict, default_name: str = "scenario") -> Scenario:
    """Validate a parsed document and fill defaults."""
    raw = _require_mapping(raw, "scenario")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ValidationError(f"{key}: unknown top-level field")
    name = raw.get("name", default_name)
    if not isinstance(name, str) or not name:
        raise ValidationError("name: expected a non-empty string")
    # the name starts the name of every output file
    if any(c in name for c in filter(None, ("/", "\0", os.sep, os.altsep))):
        raise ValidationError(f"name: {name!r} cannot be part of a file name")
    protocol = raw.get("protocol", "both")
    if protocol not in ("br", "aodv", "both"):
        raise ValidationError(f"protocol: expected br, aodv or both, got {protocol!r}")
    if ("horizon_s" in raw) == ("horizon_ms" in raw):
        raise ValidationError("horizon: give exactly one of horizon_s / horizon_ms")
    if "horizon_ms" in raw:
        horizon_ms = _coerce(raw["horizon_ms"], int, "horizon_ms")
    else:
        horizon_ms = 1000 * _coerce(raw["horizon_s"], int, "horizon_s")
    if horizon_ms <= 0:
        raise ValidationError("horizon: must be positive")
    if "topology" not in raw:
        raise ValidationError("topology: required")
    topology = _build_topology(raw["topology"])
    walls = _build_walls(raw.get("walls"))
    try:
        topology = replace(topology, walls=walls)
    except ValueError as exc:
        raise ValidationError(f"walls: {exc}") from exc
    # a missing or null parameter section means all defaults; anything else
    # must be a mapping
    params = {
        key: _build(cls, {} if raw.get(key) is None else raw[key], key)
        for key, cls in (("channel", ChannelParams), ("br", BrParams), ("csma", CsmaParams))
    }
    _check_readings(topology, params["channel"])
    if "traffic" not in raw:
        raise ValidationError("traffic: required")
    traffic = _build_traffic(raw["traffic"], topology)
    return Scenario(name, protocol, horizon_ms, topology, traffic=traffic, **params)


def _check_readings(topology: Topology, channel: ChannelParams) -> None:
    """Every station's reading of the destination beacon must fit a Response.

    Any station may come to hold one (with the zero-interference target
    every station decodes every beacon), and a Response carries it as an
    int16 whole-dBm value.
    """
    dst = topology.destination
    for nid in sorted(topology.nodes):
        try:
            level = rssi(topology.position(dst), topology.position(nid), topology, channel)
            Response(dst, nid, level)
        except (ArithmeticError, ValueError) as exc:
            raise ValidationError(
                f"channel: station {nid} cannot hold a reading of the destination"
                f" beacon (tx_power_dbm less path loss and walls): {exc}"
            ) from exc


# ---- document and override handling ----------------------------------------


@functools.cache
def _yaml():
    """PyYAML and the strict loader, both made on the first parse.

    A scenario built from a mapping never parses, so it never pays for
    importing PyYAML.
    """
    import yaml

    class UniqueKeyLoader(yaml.SafeLoader):
        """A SafeLoader that rejects a key written twice in one mapping.

        Plain PyYAML keeps the last value of a repeated key without a word. A
        key merged in with `<<` may still be overridden by one written out.
        """

        def construct_mapping(self, node, deep=False):
            # a node that is no mapping (`!!set foo`) is the base class's to reject
            pairs = node.value if isinstance(node, yaml.MappingNode) else []
            lines: dict = {}  # the line of each key written out in this mapping
            for key_node, _ in pairs:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                key = self.construct_object(key_node, deep=True)
                line = key_node.start_mark.line + 1
                try:
                    first = lines.get(key)
                except TypeError:
                    continue  # an unhashable key, which the base class reports
                if first is not None:
                    raise yaml.constructor.ConstructorError(
                        problem=f"duplicate key {key!r} on line {line} (first on line {first})"
                    )
                lines[key] = line
            return super().construct_mapping(node, deep=deep)

    # YAML 1.1 reads a number in exponent form as a string unless it also has
    # a dot and a signed exponent (`6.0e+0`); YAML 1.2's core schema reads
    # `6e0`, `1e-3` and `.5e1` as floats. Tried after the YAML 1.1 int rule,
    # so `5` stays an int.
    UniqueKeyLoader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
        list("-+.0123456789"),
    )
    return yaml, UniqueKeyLoader


def _yaml_problem(exc) -> str:
    """The problem alone, without PyYAML's marks and snippets; one line."""
    return getattr(exc, "problem", None) or str(exc).partition("\n")[0]


# the line breaks YAML counts; str.splitlines would also break at \v, \f and \x1c-\x1e
_YAML_BREAK = re.compile("\r\n|[\r\n\x85\u2028\u2029]")


def _line_and_column(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of a character offset into `text`, as YAML counts them."""
    lines = _YAML_BREAK.split(text[:offset])
    return len(lines), len(lines[-1]) + 1


def parse_document(text: str, origin: str = "<string>") -> dict:
    yaml, loader = _yaml()
    try:
        raw = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            where = f"line {mark.line + 1}, column {mark.column + 1}: "
        elif isinstance(exc, yaml.reader.ReaderError):  # a character offset, no mark
            where = "line {}, column {}: ".format(*_line_and_column(text, exc.position))
        else:
            where = ""
        raise ParseError(f"{origin}: {where}{_yaml_problem(exc)}") from exc
    if raw is None:
        raise ParseError(f"{origin}: empty document")
    return _require_mapping(raw, "scenario")


def apply_overrides(raw: dict, assignments: list[str]) -> dict:
    """Apply dotted key=value pairs; values parse as YAML scalars."""
    raw = copy.deepcopy(raw)
    for text in assignments:
        key, sep, value = text.partition("=")
        if not sep or not key:
            raise ValidationError(f"override {text!r}: expected key.path=value")
        path = key.split(".")
        if "" in path:
            raise ValidationError(
                f"override {text!r}: key segment {path.index('') + 1} of {key!r} is empty"
            )
        # the two horizon spellings are alternatives; an override replaces both
        if path == ["horizon_ms"]:
            raw.pop("horizon_s", None)
        elif path == ["horizon_s"]:
            raw.pop("horizon_ms", None)
        cursor = raw
        for part in path[:-1]:
            nxt = cursor.get(part)
            if nxt is None:
                nxt = cursor[part] = {}
            if not isinstance(nxt, dict):
                raise ValidationError(f"override {key}: {part} is not a mapping")
            cursor = nxt
        if value == "":
            cursor[path[-1]] = None
            continue
        yaml, loader = _yaml()
        try:
            cursor[path[-1]] = yaml.load(value, Loader=loader)
        except yaml.YAMLError as exc:  # its marks would point within the value
            raise ValidationError(f"override {text!r}: bad value: {_yaml_problem(exc)}") from exc
    return raw


def load_raw(path: str) -> tuple[dict, str]:
    """Read a scenario document from a file, or else the bundled scenario of that name.

    A directory is no file, so one left by `--out NAME` does not hide the
    bundled scenario NAME; a pipe such as `/dev/stdin` is read.
    """
    if os.path.exists(path) and not os.path.isdir(path):
        with open(path, "rb") as fh:
            data = fh.read()
        name = os.path.splitext(os.path.basename(path))[0]
    else:
        candidate = resources.files("brsim").joinpath("scenarios").joinpath(f"{path}.yaml")
        if not candidate.is_file():
            raise ScenarioError(
                f"{path}: no such file and no bundled scenario with that name "
                f"(bundled: {', '.join(list_bundled())})"
            )
        data, name = candidate.read_bytes(), path
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        prefix = data[: exc.start].decode("utf-8")
        where = "line {}, column {}".format(*_line_and_column(prefix, len(prefix)))
        raise ParseError(
            f"{path}: {where}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from exc
    return parse_document(text, path), name


def list_bundled() -> list[str]:
    base = resources.files("brsim").joinpath("scenarios")
    return sorted(
        entry.name[: -len(".yaml")]
        for entry in base.iterdir()
        if entry.name.endswith(".yaml")
    )


def load_scenario(path: str, overrides: list[str] | None = None) -> Scenario:
    raw, name = load_raw(path)
    if overrides:
        raw = apply_overrides(raw, overrides)
    return build_scenario(raw, default_name=name)
