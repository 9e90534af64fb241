"""Wire codec: frozen byte layouts, validation, round-trip behaviour."""

import dataclasses
import random

import pytest

from brsim.frame import (
    Ack,
    DstBcast,
    FRAME_SIZES,
    MessageType,
    Response,
    Routing,
    SrcBcast,
    TrailingBytesError,
    TruncatedFrameError,
    UnknownTypeError,
    decode_frame,
    encode_frame,
)

FRAMES = [
    (SrcBcast(5), bytes([0x00, 0x01, 0x00, 0x05])),
    (DstBcast(0), bytes([0x00, 0x02, 0x00, 0x00])),
    # dst_rssi -71 = 0xFFB9 in two's complement
    (Response(9, 4, -71), bytes([0x00, 0x03, 0x00, 0x09, 0x00, 0x04, 0xFF, 0xB9])),
    (
        Routing(9, 0, 9, 4, 1),
        bytes(
            [0x00, 0x04, 0x00, 0x09, 0x00, 0x00, 0x00, 0x09, 0x00, 0x04,
             0x00, 0x00, 0x00, 0x01]
        ),
    ),
    (Ack(0), bytes([0x00, 0x05, 0x00, 0x00])),
]


@pytest.mark.parametrize("frame,wire", FRAMES, ids=lambda v: type(v).__name__ if not isinstance(v, bytes) else "")
def test_frozen_encodings(frame, wire):
    assert encode_frame(frame) == wire
    assert decode_frame(wire) == frame


def test_declared_sizes():
    assert FRAME_SIZES == {
        MessageType.SRC_BCAST: 4,
        MessageType.DST_BCAST: 4,
        MessageType.RESPONSE: 8,
        MessageType.ROUTING: 14,
        MessageType.ACK: 4,
    }
    for frame, wire in FRAMES:
        assert len(wire) == FRAME_SIZES[frame.type]


def test_big_endian_field_order():
    wire = encode_frame(Routing(0x0102, 0x0304, 0x0506, 0x0708, 0x090A0B0C))
    assert wire == bytes.fromhex("0004" "0102" "0304" "0506" "0708" "090a0b0c")


def test_extreme_field_values_round_trip():
    for frame in (
        Response(0, 0xFFFE, -0x8000),
        Response(0xFFFF, 0, 0x7FFF),
        Routing(0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFFFFFF),
        Routing(0, 0, 0, 0, 0),
    ):
        assert decode_frame(encode_frame(frame)) == frame


def test_field_range_validation():
    with pytest.raises(ValueError):
        SrcBcast(-1)
    with pytest.raises(ValueError):
        SrcBcast(0x10000)
    with pytest.raises(ValueError):
        Response(0, 0, -0x8001)
    with pytest.raises(ValueError):
        Response(0, 0, 0x8000)
    with pytest.raises(ValueError):
        Routing(0, 0, 0, 0, -1)
    with pytest.raises(ValueError):
        Routing(0, 0, 0, 0, 0x100000000)
    with pytest.raises(ValueError):
        Ack(0x12345)


# struct code -> (lowest, highest) value of a field
FIELD_RANGES = {"H": (0, 0xFFFF), "h": (-0x8000, 0x7FFF), "I": (0, 0xFFFFFFFF)}


@pytest.mark.parametrize("cls", [SrcBcast, DstBcast, Response, Routing, Ack], ids=lambda c: c.__name__)
def test_every_field_checks_its_range(cls):
    names = [f.name for f in dataclasses.fields(cls)]
    for i, (name, code) in enumerate(zip(names, cls.layout[2:], strict=True)):
        lo, hi = FIELD_RANGES[code]

        def build(value):
            return cls(*(value if j == i else 0 for j in range(len(names))))

        assert getattr(build(lo), name) == lo and getattr(build(hi), name) == hi
        for bad in (lo - 1, hi + 1):
            with pytest.raises(ValueError, match=f"^{name} out of range"):
                build(bad)


@pytest.mark.parametrize("frame,wire", FRAMES, ids=lambda v: type(v).__name__ if not isinstance(v, bytes) else "")
def test_frames_are_frozen_slotted_values(frame, wire):
    # nodes share one frame object between transmissions, so none may change
    assert not hasattr(frame, "__dict__")
    for field in dataclasses.fields(frame):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(frame, field.name, 1)
    assert encode_frame(frame) == wire


def test_unknown_type_codes():
    for code in (0, 6, 0xFFFF):
        with pytest.raises(UnknownTypeError):
            decode_frame(code.to_bytes(2, "big") + b"\x00\x00")


def test_truncated_buffers():
    with pytest.raises(TruncatedFrameError):
        decode_frame(b"")
    with pytest.raises(TruncatedFrameError):
        decode_frame(b"\x00")
    for frame, wire in FRAMES:
        for cut in range(2, len(wire)):
            with pytest.raises(TruncatedFrameError):
                decode_frame(wire[:cut])


def test_trailing_bytes_rejected():
    for frame, wire in FRAMES:
        with pytest.raises(TrailingBytesError):
            decode_frame(wire + b"\x00")


def random_frame(rng):
    u16 = lambda: rng.randrange(0x10000)
    i16 = lambda: rng.randrange(-0x8000, 0x8000)
    u32 = lambda: rng.randrange(0x100000000)
    kind = rng.randrange(5)
    if kind == 0:
        return SrcBcast(u16())
    if kind == 1:
        return DstBcast(u16())
    if kind == 2:
        return Response(u16(), u16(), i16())
    if kind == 3:
        return Routing(u16(), u16(), u16(), u16(), u32())
    return Ack(u16())


def test_random_round_trip_property():
    rng = random.Random(0xC0DEC)
    for _ in range(2000):
        frame = random_frame(rng)
        wire = encode_frame(frame)
        assert len(wire) == FRAME_SIZES[frame.type]
        assert decode_frame(wire) == frame
