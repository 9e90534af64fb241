"""Wire frames for the relay-routing MAC.

Five frame types travel over the air. Each frame class declares its wire
layout once, as a big-endian `struct` format whose first field is the 16-bit
type code and whose remaining fields are the class's fields in order; the
frame sizes, the field range checks and the codec all derive from it. Node
ids are unsigned 16-bit ("H"); 0xFFFF is the broadcast id and is never
assigned to a node. RSSI is a signed 16-bit whole-dBm reading ("h").
The hop counter is the single 32-bit field ("I").

`decode_frame` raises FrameDecodeError subclasses for unknown type codes,
short buffers, and trailing bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

BROADCAST_ID = 0xFFFF

# struct code -> (name, lowest, highest) of the values a field may hold
_RANGES = {
    "H": ("uint16", 0, 0xFFFF),
    "h": ("int16", -0x8000, 0x7FFF),
    "I": ("uint32", 0, 0xFFFFFFFF),
}


class MessageType(IntEnum):
    SRC_BCAST = 1
    DST_BCAST = 2
    RESPONSE = 3
    ROUTING = 4
    ACK = 5


class FrameDecodeError(Exception):
    """Base error for undecodable byte sequences."""


class UnknownTypeError(FrameDecodeError):
    pass


class TruncatedFrameError(FrameDecodeError):
    pass


class TrailingBytesError(FrameDecodeError):
    pass


class _Wire:
    """Base of the frame classes: derives the codec and checks from `layout`.

    Each subclass is a frozen, slotted dataclass that sets `type` and
    `layout`. A frame is a shared value: a node builds each frame it sends
    once and puts the same object on the air again (see RadioNode), so no
    frame may change after it is built.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # field names in declaration order, each with its struct code's range
        cls._fields = tuple(cls.__annotations__)
        cls._ranges = tuple(
            (name, *_RANGES[code]) for name, code in zip(cls._fields, cls.layout[2:])
        )

    def __post_init__(self) -> None:
        for name, kind, lo, hi in self._ranges:
            value = getattr(self, name)
            if not lo <= value <= hi:
                raise ValueError(f"{name} out of range for {kind}: {value}")


@dataclass(frozen=True, slots=True)
class SrcBcast(_Wire):
    """RTS: a holder announces it wants to hand a packet off."""

    broadcast_node_id: int

    type = MessageType.SRC_BCAST
    layout = ">HH"


@dataclass(frozen=True, slots=True)
class DstBcast(_Wire):
    """Location beacon emitted periodically by the destination."""

    broadcast_node_id: int

    type = MessageType.DST_BCAST
    layout = ">HH"


@dataclass(frozen=True, slots=True)
class Response(_Wire):
    """Reply to an RTS carrying the responder's stored destination RSSI."""

    broadcast_node_id: int
    response_node_id: int
    dst_rssi: int

    type = MessageType.RESPONSE
    layout = ">HHHh"


@dataclass(frozen=True, slots=True)
class Routing(_Wire):
    """Data frame. hop_count is the number of completed handovers so far."""

    source_node_id: int
    dest_node_id: int
    send_node_id: int
    recv_node_id: int
    hop_count: int

    type = MessageType.ROUTING
    layout = ">HHHHHI"


@dataclass(frozen=True, slots=True)
class Ack(_Wire):
    """Acknowledgement of a received Routing frame."""

    response_node_id: int

    type = MessageType.ACK
    layout = ">HH"


Frame = SrcBcast | DstBcast | Response | Routing | Ack


_CLASSES = {cls.type: cls for cls in Frame.__args__}

FRAME_SIZES = {code: struct.calcsize(cls.layout) for code, cls in _CLASSES.items()}


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame to its big-endian wire form."""
    return struct.pack(frame.layout, frame.type, *(getattr(frame, f) for f in frame._fields))


def decode_frame(data: bytes) -> Frame:
    """Parse one frame from `data`; the buffer must hold exactly one frame."""
    if len(data) < 2:
        raise TruncatedFrameError(f"need at least 2 bytes for the type field, got {len(data)}")
    (code,) = struct.unpack_from(">H", data, 0)
    cls = _CLASSES.get(code)
    if cls is None:
        raise UnknownTypeError(f"unknown frame type code {code}")
    size = FRAME_SIZES[cls.type]
    if len(data) < size:
        raise TruncatedFrameError(
            f"{cls.type.name} frame needs {size} bytes, got {len(data)}"
        )
    if len(data) > size:
        raise TrailingBytesError(
            f"{len(data) - size} trailing bytes after {size}-byte {cls.type.name} frame"
        )
    return cls(*struct.unpack(cls.layout, data)[1:])
