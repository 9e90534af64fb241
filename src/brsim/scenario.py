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

Dotted overrides ("br.relay_probability=0.5") are applied to the raw mapping
before validation, so every parameter reachable in the document is reachable
from the command line as well.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass, fields
from importlib import resources

import yaml

from .baseline import CsmaParams
from .br_node import BrParams
from .channel import ChannelParams, Position, Topology, WallSegment


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
            raise ValueError("traffic.sources must not be empty")
        if self.packets_per_source < 1:
            raise ValueError("traffic.packets_per_source must be at least 1")
        if self.inter_arrival_ms < 1:
            raise ValueError("traffic.inter_arrival_ms must be positive")
        if self.start_ms < 0:
            raise ValueError("traffic.start_ms must not be negative")


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


def tandem_topology(
    count: int, floor_width_m: float = 2.05, floor_length_m: float = 14.0
) -> Topology:
    """Equally spaced line along the floor centerline, ends are source/destination."""
    if count < 2:
        raise ValidationError("topology.count: tandem needs at least 2 nodes")
    y = floor_width_m / 2.0
    step = floor_length_m / (count - 1)
    nodes = {i: Position(i * step, y) for i in range(count)}
    return Topology(nodes=nodes, destination=count - 1)


def grid_topology(
    rows: int, cols: int, floor_width_m: float, floor_length_m: float
) -> Topology:
    """rows x cols lattice filling the floor, destination in the last corner."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValidationError("topology: grid needs at least 2 nodes")
    dx = floor_length_m / (cols - 1) if cols > 1 else 0.0
    dy = floor_width_m / (rows - 1) if rows > 1 else 0.0
    nodes = {}
    for r in range(rows):
        for c in range(cols):
            nodes[r * cols + c] = Position(c * dx, r * dy)
    return Topology(nodes=nodes, destination=rows * cols - 1)


# ---- section builders --------------------------------------------------------


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: expected a mapping, got {type(value).__name__}")
    return value


def _coerce(value, target: type, where: str):
    if target is int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{where}: expected an integer, got {value!r}")
        if isinstance(value, float):
            if not value.is_integer():
                raise ValidationError(f"{where}: expected an integer, got {value!r}")
            value = int(value)
        return value
    if target is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{where}: expected a number, got {value!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ValidationError(f"{where}: must be finite, got {value!r}")
        return value
    return value


def _build_params(cls, section, where: str):
    section = _require_mapping(section or {}, where)
    allowed = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in section.items():
        if key not in allowed:
            raise ValidationError(f"{where}.{key}: unknown field")
        target = {"int": int, "float": float}.get(allowed[key].type, None)
        kwargs[key] = _coerce(value, target, f"{where}.{key}") if target else value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _build_topology(section, where: str = "topology") -> Topology:
    section = _require_mapping(section, where)
    has_nodes = "nodes" in section
    has_generator = "generator" in section
    if has_nodes and has_generator:
        raise ValidationError(f"{where}: give either nodes or a generator, not both")
    if has_generator:
        return _build_generated(section, where)
    if not has_nodes:
        raise ValidationError(f"{where}: needs node positions or a generator")
    known = {"nodes", "destination"}
    for key in section:
        if key not in known:
            raise ValidationError(f"{where}.{key}: unknown field")
    raw_nodes = section["nodes"]
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ValidationError(f"{where}.nodes: expected a non-empty list")
    nodes: dict[int, Position] = {}
    for i, entry in enumerate(raw_nodes):
        entry = _require_mapping(entry, f"{where}.nodes[{i}]")
        for key in entry:
            if key not in ("id", "x", "y"):
                raise ValidationError(f"{where}.nodes[{i}].{key}: unknown field")
        try:
            nid = _coerce(entry["id"], int, f"{where}.nodes[{i}].id")
            pos = Position(
                _coerce(entry["x"], float, f"{where}.nodes[{i}].x"),
                _coerce(entry["y"], float, f"{where}.nodes[{i}].y"),
            )
        except KeyError as exc:
            raise ValidationError(f"{where}.nodes[{i}]: missing {exc.args[0]}") from exc
        if not 0 <= nid <= 0xFFFE:
            raise ValidationError(f"{where}.nodes[{i}].id: out of range: {nid}")
        if nid in nodes:
            raise ValidationError(f"{where}.nodes[{i}].id: duplicate id {nid}")
        nodes[nid] = pos
    if "destination" not in section:
        raise ValidationError(f"{where}.destination: required with explicit nodes")
    dst = _coerce(section["destination"], int, f"{where}.destination")
    if dst not in nodes:
        raise ValidationError(f"{where}.destination: unknown node {dst}")
    return Topology(nodes=nodes, destination=dst)


def _build_generated(section: dict, where: str) -> Topology:
    kind = section["generator"]
    params = {k: v for k, v in section.items() if k != "generator"}
    if kind == "tandem":
        allowed = {"count", "floor_width_m", "floor_length_m"}
        for key in params:
            if key not in allowed:
                raise ValidationError(f"{where}.{key}: unknown tandem field")
        if "count" not in params:
            raise ValidationError(f"{where}.count: required for tandem")
        return tandem_topology(
            _coerce(params["count"], int, f"{where}.count"),
            _coerce(params.get("floor_width_m", 2.05), float, f"{where}.floor_width_m"),
            _coerce(
                params.get("floor_length_m", 14.0), float, f"{where}.floor_length_m"
            ),
        )
    if kind == "grid":
        allowed = {"rows", "cols", "floor_width_m", "floor_length_m"}
        for key in params:
            if key not in allowed:
                raise ValidationError(f"{where}.{key}: unknown grid field")
        for need in ("rows", "cols"):
            if need not in params:
                raise ValidationError(f"{where}.{need}: required for grid")
        return grid_topology(
            _coerce(params["rows"], int, f"{where}.rows"),
            _coerce(params["cols"], int, f"{where}.cols"),
            _coerce(params.get("floor_width_m", 2.05), float, f"{where}.floor_width_m"),
            _coerce(
                params.get("floor_length_m", 14.0), float, f"{where}.floor_length_m"
            ),
        )
    raise ValidationError(f"{where}.generator: unknown generator {kind!r}")


def _build_walls(section, where: str = "walls") -> list[WallSegment]:
    if section is None:
        return []
    if not isinstance(section, list):
        raise ValidationError(f"{where}: expected a list")
    walls = []
    for i, entry in enumerate(section):
        entry = _require_mapping(entry, f"{where}[{i}]")
        allowed = {"x1", "y1", "x2", "y2", "attenuation_db"}
        for key in entry:
            if key not in allowed:
                raise ValidationError(f"{where}[{i}].{key}: unknown field")
        for need in ("x1", "y1", "x2", "y2"):
            if need not in entry:
                raise ValidationError(f"{where}[{i}].{need}: required")
        walls.append(
            WallSegment(
                Position(
                    _coerce(entry["x1"], float, f"{where}[{i}].x1"),
                    _coerce(entry["y1"], float, f"{where}[{i}].y1"),
                ),
                Position(
                    _coerce(entry["x2"], float, f"{where}[{i}].x2"),
                    _coerce(entry["y2"], float, f"{where}[{i}].y2"),
                ),
                _coerce(
                    entry.get("attenuation_db", 20.0), float, f"{where}[{i}].attenuation_db"
                ),
            )
        )
    return walls


def _build_traffic(section, topology: Topology, where: str = "traffic") -> TrafficSpec:
    section = _require_mapping(section, where)
    allowed = {"sources", "packets_per_source", "inter_arrival_ms", "start_ms"}
    for key in section:
        if key not in allowed:
            raise ValidationError(f"{where}.{key}: unknown field")
    if "sources" not in section:
        raise ValidationError(f"{where}.sources: required")
    raw_sources = section["sources"]
    if raw_sources == "all":
        sources = tuple(
            nid for nid in sorted(topology.nodes) if nid != topology.destination
        )
    elif isinstance(raw_sources, list):
        sources = tuple(
            _coerce(s, int, f"{where}.sources[{i}]") for i, s in enumerate(raw_sources)
        )
    else:
        raise ValidationError(f"{where}.sources: expected a list or 'all'")
    seen = set()
    for s in sources:
        if s in seen:
            raise ValidationError(f"{where}.sources: duplicate node {s}")
        seen.add(s)
        if s not in topology.nodes:
            raise ValidationError(f"{where}.sources: unknown node {s}")
        if s == topology.destination:
            raise ValidationError(f"{where}.sources: destination {s} cannot source")
    try:
        return TrafficSpec(
            sources=sources,
            packets_per_source=_coerce(
                section.get("packets_per_source", 1), int, f"{where}.packets_per_source"
            ),
            inter_arrival_ms=_coerce(
                section.get("inter_arrival_ms", 60000), int, f"{where}.inter_arrival_ms"
            ),
            start_ms=_coerce(section.get("start_ms", 0), int, f"{where}.start_ms"),
        )
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


_TOP_KEYS = {
    "name",
    "protocol",
    "horizon_s",
    "horizon_ms",
    "topology",
    "walls",
    "channel",
    "br",
    "csma",
    "traffic",
}


def build_scenario(raw: dict, default_name: str = "scenario") -> Scenario:
    """Validate a parsed document and fill defaults."""
    raw = _require_mapping(raw, "scenario")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ValidationError(f"{key}: unknown top-level field")
    name = raw.get("name", default_name)
    if not isinstance(name, str) or not name:
        raise ValidationError("name: expected a non-empty string")
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
    topology.walls.extend(_build_walls(raw.get("walls")))
    channel = _build_params(ChannelParams, raw.get("channel"), "channel")
    br = _build_params(BrParams, raw.get("br"), "br")
    csma = _build_params(CsmaParams, raw.get("csma"), "csma")
    if "traffic" not in raw:
        raise ValidationError("traffic: required")
    traffic = _build_traffic(raw["traffic"], topology)
    return Scenario(name, protocol, horizon_ms, topology, channel, br, csma, traffic)


# ---- document and override handling ----------------------------------------


def parse_document(text: str, origin: str = "<string>") -> dict:
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"{origin}: {exc}") from exc
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
        try:
            cursor[path[-1]] = yaml.safe_load(value) if value != "" else None
        except yaml.YAMLError as exc:
            raise ValidationError(f"override {text!r}: bad value") from exc
    return raw


def load_raw(path: str) -> tuple[dict, str]:
    """Read a scenario document from a file path or a bundled name."""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return parse_document(fh.read(), path), os.path.splitext(
                os.path.basename(path)
            )[0]
    base = resources.files("brsim").joinpath("scenarios")
    candidate = base.joinpath(f"{path}.yaml")
    if candidate.is_file():
        return parse_document(candidate.read_text(encoding="utf-8"), path), path
    raise ScenarioError(
        f"{path}: no such file and no bundled scenario with that name "
        f"(bundled: {', '.join(list_bundled())})"
    )


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
