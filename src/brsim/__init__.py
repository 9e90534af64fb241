"""Discrete-event simulator for coin-flip relay routing over lossy radio.

Stations share a slotted radio channel with log-distance path loss, wall
attenuation and SIR-based collision resolution. Two protocols run on top of
the same frame codec and handshake machinery: the relay-probability scheme
(every station decides per epoch whether to relay for others or transmit its
own data, and forwards greedily on destination beacon strength) and an
always-on greedy baseline over CSMA/CA. The package reproduces static-network
experiments: hop-count scaling, route traces, and per-hop distances.
"""

from .baseline import AodvNode, CsmaParams
from .br_node import BrNode, BrParams
from .channel import (
    ChannelParams,
    LinkCache,
    Position,
    Topology,
    WallSegment,
    path_loss,
    rssi,
    sensitivity_dbm,
)
from .engine import Engine, PastEventError, RngStream, derive_stream_seed
from .frame import (
    BROADCAST_ID,
    Ack,
    DstBcast,
    FrameDecodeError,
    MessageType,
    Response,
    Routing,
    SrcBcast,
    decode_frame,
    encode_frame,
)
from .metrics import (
    Aggregate,
    EmptyInputError,
    HopRecord,
    Outcome,
    RoutingRecord,
    RunMetrics,
    read_csv,
    summarize,
    write_csv,
    write_hop_trace,
)
from .scenario import (
    ParseError,
    Scenario,
    ScenarioError,
    TrafficSpec,
    ValidationError,
    apply_overrides,
    build_scenario,
    grid_topology,
    list_bundled,
    load_scenario,
    tandem_topology,
)
from .simulation import Simulation, run_many, run_scenario

__version__ = "0.1.0"

__all__ = [
    "Ack",
    "Aggregate",
    "AodvNode",
    "BROADCAST_ID",
    "BrNode",
    "BrParams",
    "ChannelParams",
    "CsmaParams",
    "DstBcast",
    "EmptyInputError",
    "Engine",
    "FrameDecodeError",
    "HopRecord",
    "LinkCache",
    "MessageType",
    "Outcome",
    "ParseError",
    "PastEventError",
    "Position",
    "Response",
    "RngStream",
    "Routing",
    "RoutingRecord",
    "RunMetrics",
    "Scenario",
    "ScenarioError",
    "Simulation",
    "SrcBcast",
    "Topology",
    "TrafficSpec",
    "ValidationError",
    "WallSegment",
    "apply_overrides",
    "build_scenario",
    "decode_frame",
    "derive_stream_seed",
    "encode_frame",
    "grid_topology",
    "list_bundled",
    "load_scenario",
    "path_loss",
    "read_csv",
    "rssi",
    "run_many",
    "run_scenario",
    "sensitivity_dbm",
    "summarize",
    "tandem_topology",
    "write_csv",
    "write_hop_trace",
]
