"""The wire registry (`repro.common.wire`): pinned bytes, length guards,
type-byte uniqueness.

The hex strings below were recorded from the hand-written packers the
registry replaced (``firmware/proto.py``, ``collectives/wire.py``,
``traffic/wire.py``, the blockxfer/S-COMA/update-release/MCS packers and
the inline mini-MPI fragment header), so every message keeps its length
and its bytes.  Type bytes claimed twice were renumbered out of the
application range; for those, only byte 0 differs from the recording
(``RENUMBERED``).
"""

import ast
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import wire
from repro.common.errors import FirmwareError, NetworkError, ProgramError
from repro.common.wire import Layout, check_table

A48 = 0xFFFFFFFFFFFF
U32 = 0xFFFFFFFF
QMAX, QMIN = 2**63 - 1, -(2**63)


def full(n):
    """A recognisable n-byte tail."""
    return bytes(range(n))


#: (layout, fields, tail, recorded bytes)
PINS = [
    ("DMA_REQ", (0, 0, 0, 0, 0, 0), b"", "01" + "00" * 20),
    ("DMA_REQ", (A48, 0xFFFF, 0x123456789ABC, U32, 255, 255), b"",
     "01ffffffffffffffff123456789abcffffffffffff"),
    ("BT45_ARM", (0, 0, 0), b"", "40" + "00" * 11),
    ("BT45_ARM", (255, A48, U32), b"", "40" + "ff" * 11),
    ("BT2_CHUNK", (0,), b"", "0300000000000000"),
    ("BT2_CHUNK", (A48,), b"", "0300ffffffffffff"),
    ("BT2_DONE", (0, 0), b"", "040000000000"),
    ("BT2_DONE", (255, U32), b"", "04ffffffffff"),
    ("DMA_NOTIFY", (0,), b"", "00000000"),
    ("DMA_NOTIFY", (U32,), b"", "ffffffff"),
    ("NUMA_RREQ", (0, 0), b"", "0500000000000000"),
    ("NUMA_RREQ", (255, A48), b"", "05ffffffffffffff"),
    ("NUMA_RREP", (0,), b"", "0600000000000000"),
    ("NUMA_RREP", (A48,), full(80), "0650ffffffffffff" + full(80).hex()),
    ("NUMA_WREQ", (0,), b"", "0700000000000000"),
    ("NUMA_WREQ", (A48,), full(80), "0750ffffffffffff" + full(80).hex()),
    ("SCOMA_REQ", (wire.MSG_SCOMA_RREQ, 0), b"", "080000000000"),
    ("SCOMA_REQ", (wire.MSG_SCOMA_WREQ, U32), b"", "0900ffffffff"),
    ("SCOMA_INV", (0,), b"", "0a0000000000"),
    ("SCOMA_INV", (U32,), b"", "0a00ffffffff"),
    ("SCOMA_INVACK", (0,), b"", "0b0000000000"),
    ("SCOMA_INVACK", (U32,), b"", "0b00ffffffff"),
    ("SCOMA_WBREQ", (False, 0), b"", "0c0000000000"),
    ("SCOMA_WBREQ", (True, U32), b"", "0c01ffffffff"),
    ("SCOMA_WBDATA", (0,), b"", "0d0000000000"),
    ("SCOMA_WBDATA", (U32,), full(82), "0d52ffffffff" + full(82).hex()),
    ("SCOMA_EVICT", (0,), b"", "0e0000000000"),
    ("SCOMA_EVICT", (U32,), b"", "0e00ffffffff"),
    ("SCOMA_EVICT_DIRTY", (0,), b"", "0f0000000000"),
    ("SCOMA_EVICT_DIRTY", (U32,), full(82),
     "0f52ffffffff" + full(82).hex()),
    ("SCOMA_EVICT_REQ", (0,), b"", "420000000000"),
    ("SCOMA_EVICT_REQ", (U32,), b"", "4200ffffffff"),
    ("UPDATE_RELEASE", (0,), b"", "4100"),
    ("UPDATE_RELEASE", (255,), b"", "41ff"),
    ("COLL", (wire.MSG_COLL_REQ, 0, 0, 0, 0, 0, 0), b"",
     "10000000000000000000000000"),
    ("COLL", (wire.MSG_COLL_DOWN, 3, 255, 255, U32, 255, 0xFFFF),
     full(75), "1203ffffffffffff00ffffff4b" + full(75).hex()),
    ("COLL", (wire.MSG_COLL_UP, 3, 0, 0, 7, 2, 0x8001),
     bytes.fromhex("ffffffffffffffd6"),
     "11030000000000070002800108ffffffffffffffd6"),
    ("MPI_FRAG", (0, 0, 0), b"", "00000000000000000000"),
    ("MPI_FRAG", (0xFFFF, U32, U32), full(78), "ff" * 10 + full(78).hex()),
    ("VALUE", (0,), b"", "0000000000000000"),
    ("VALUE", (1,), b"", "0000000000000001"),
    ("VALUE", (-1,), b"", "ffffffffffffffff"),
    ("VALUE", (QMAX,), b"", "7fffffffffffffff"),
    ("VALUE", (QMIN,), b"", "8000000000000000"),
    ("REL_SEND", (0, 0), b"", "13000000"),
    ("REL_SEND", (255, 0xFFFF), full(84), "13ffffff" + full(84).hex()),
    ("REL_DATA", (0, 0), b"", "14000000"),
    ("REL_DATA", (255, 0xFFFF), full(84), "14ffffff" + full(84).hex()),
    ("REL_ACK", (0,), b"", "15000000"),
    ("REL_ACK", (0xFFFF,), b"", "1500ffff"),
    ("SYNC_REQ", (0, 0, 0, 0, 0, 0, 0), b"", "16" + "00" * 34),
    ("SYNC_REQ", (U32, U32, 255, U32, 255, QMAX, QMIN), b"",
     "16" + "ff" * 9 + "00" * 4 + "ff" * 5
     + "7fffffffffffffff8000000000000000"),
    ("SYNC_REP", (0, False, 0), b"", "17" + "00" * 13),
    ("SYNC_REP", (U32, True, QMIN), b"", "17ffffffff018000000000000000"),
    ("SYNC_REP", (5, True, QMAX), b"", "1700000005017fffffffffffffff"),
    ("SYNC_INJECT", (), bytes.fromhex("00" * 36 + "0000ffff00000001"),
     "18" + "00" * 36 + "0000ffff00000001"),
    ("SYNC_TREE_REP", (0, 0, 0), b"", "1a" + "00" * 16),
    ("SYNC_TREE_REP", (U32, U32, QMIN), b"",
     "1affffffffffffffff8000000000000000"),
    ("SYNC_TREE_REP", (7, 3, QMAX), b"",
     "1a00000007000000037fffffffffffffff"),
    ("SYNC_CBAR", (0, 0, 0, 0, 0, 0), b"", "1b" + "00" * 26),
    ("SYNC_CBAR", (U32, U32, U32, 255, 255, QMIN), b"",
     "1b" + "ff" * 8 + "00" * 4 + "ff" * 6 + "8000000000000000"),
    # a combined tag carries origin NO_NODE
    ("SYNC_TAG", (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, wire.NO_NODE, 1), b"",
     "00" * 36 + "0000ffff00000001"),
    ("SYNC_TAG", (255, 255, U32, U32, U32, 255, 255, QMIN, QMAX, U32,
                  wire.MAX_NODE, U32), b"",
     "ff" * 16 + "8000000000000000" + "7fffffffffffffff" + "ffffffff"
     + "0000fffe" + "ffffffff"),
    ("SYNC_TAG", (1, 1, 9, 3, 11, 4, 3, -17, -2, 42, 6, 5), b"",
     "010100000009000000030000000b0403ffffffffffffffef"
     "fffffffffffffffe0000002a0000000600000005"),
    ("KV_REQ", (0, 0, 0, 0, 0), b"", "40" + "00" * 14),
    ("KV_REQ", (2, 255, U32, U32, 0xFFFF), full(73),
     "4002ff0000" + "ff" * 10 + full(73).hex()),
    ("KV_REP", (0, 0), b"", "410000000000"),
    ("KV_REP", (1, U32), full(82), "4101ffffffff" + full(82).hex()),
    ("PS_PUSH", (0, 0, 0, 0, 0), b"", "42" + "00" * 21),
    ("PS_PUSH", (255, U32, U32, 0xFFFF, QMIN), b"",
     "42ff0000" + "ff" * 10 + "8000000000000000"),
    ("PS_PUSH", (1, 3, 4, 5, QMAX), b"",
     "42010000000000030000000400057fffffffffffffff"),
    ("PS_REP", (0, 0, 0), b"", "43" + "00" * 17),
    ("PS_REP", (U32, U32, QMIN), b"", "4300ffffffffffffffff8000000000000000"),
    ("USVC_REQ", (0, 0, 0, 0, 0), b"", "44" + "00" * 13),
    ("USVC_REQ", (255, 255, 255, U32, U32), b"",
     "44ffffff0000" + "ff" * 8),
    ("USVC_REP", (0,), b"", "450000000000"),
    ("USVC_REP", (U32,), b"", "4500ffffffff"),
    # aP-to-aP library messages
    ("TOKEN", (0, 0), b"", "0000000000"),
    ("TOKEN", (255, U32), b"", "ff" * 5),
]

#: type bytes moved out of the application range: recorded -> now.
RENUMBERED = {
    "BT45_ARM": {0x40: wire.MSG_BT45_ARM},
    "UPDATE_RELEASE": {0x41: wire.MSG_UPDATE_RELEASE},
    "SCOMA_EVICT_REQ": {0x42: wire.MSG_SCOMA_EVICT_REQ},
}


def _pin_id(case):
    name, fields, tail, _hex = case
    return f"{name}-{len(tail)}-{fields[:2]}"


@pytest.mark.parametrize("case", PINS, ids=[_pin_id(c) for c in PINS])
def test_pack_matches_recorded_bytes(case):
    name, fields, tail, want_hex = case
    layout = wire.TABLE[name]
    want = bytes.fromhex(want_hex)
    if name in RENUMBERED:
        want = bytes([RENUMBERED[name][want[0]]]) + want[1:]
    got = layout.pack(*fields, tail=tail)
    assert got == want
    back = layout.unpack(got)
    assert back == (fields + (tail,) if layout._tail else fields)


def test_every_layout_is_pinned():
    assert {case[0] for case in PINS} == set(wire.TABLE)


def _names_in_code(path):
    """Every identifier a module's code uses: names, attributes and
    imported names (docstrings and comments do not count)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_layout_has_a_speaker():
    """A layout no module outside the registry names, or a type byte no
    layout claims, is a message nothing sends or handles."""
    registry = pathlib.Path(wire.__file__).resolve()
    named = set()
    for path in sorted(registry.parent.parent.rglob("*.py")):
        if path != registry:
            named |= _names_in_code(path)
    assert sorted(set(wire.TABLE) - named) == []
    claimed = {t for layout in wire.TABLE.values() for t in layout.types}
    unclaimed = sorted(name for name, value in vars(wire).items()
                       if name.startswith("MSG_") and value not in claimed)
    assert unclaimed == []


def test_renumbered_types_sit_below_the_application_range():
    moved = [t for old_new in RENUMBERED.values() for t in old_new.values()]
    assert all(t < wire.MSG_USER for t in moved)
    # the serving applications keep MSG_USER + 0..5; + 6 stays unassigned
    assert [wire.MSG_KV_REQ, wire.MSG_KV_REP, wire.MSG_PS_PUSH,
            wire.MSG_PS_REP, wire.MSG_USVC_REQ, wire.MSG_USVC_REP
            ] == [wire.MSG_USER + i for i in range(6)]
    claimed = {t for layout in wire.TABLE.values() for t in layout.types}
    assert wire.MSG_USER + 6 not in claimed


# -- length and type guards ------------------------------------------------------


def _sample(layout):
    """A valid message with an empty tail (first pin of the layout)."""
    name, fields, _tail, _hex = next(c for c in PINS
                                     if wire.TABLE[c[0]] is layout)
    return layout.pack(*fields)


@pytest.mark.parametrize("name", sorted(wire.TABLE))
def test_truncated_or_mistyped_payload_raises(name):
    layout = wire.TABLE[name]
    p = _sample(layout)
    with pytest.raises(layout.error):
        layout.unpack(p[:-1])  # one byte short
    if layout._tail is None:
        with pytest.raises(layout.error):
            layout.unpack(p + b"\x00")  # one byte long
    if layout.types:
        with pytest.raises(layout.error):
            layout.unpack(bytes([255]) + p[1:])  # wrong type byte
    if layout._len_at is not None:
        fields = layout.unpack(p)[:-1]
        whole = layout.pack(*fields, tail=b"abcd")
        with pytest.raises(layout.error):
            layout.unpack(whole[:-1])  # the length byte claims more


def test_layout_errors_by_speaker():
    assert wire.SYNC_TAG.error is NetworkError
    assert wire.KV_REQ.error is FirmwareError
    # a 36-byte tag used to decode with origin 0
    with pytest.raises(NetworkError):
        wire.SYNC_TAG.unpack(bytes(36))
    # a 13-byte KV request used to pass its guard
    with pytest.raises(FirmwareError):
        wire.KV_REQ.unpack(bytes([wire.MSG_KV_REQ]) + bytes(12))


def test_pack_input_checks():
    with pytest.raises(FirmwareError):
        wire.NUMA_RREQ.pack(8, 1 << 48)  # the 48-bit address guard
    with pytest.raises(FirmwareError):
        wire.DMA_REQ.pack(-1, 0, 0, 0, 0, 0)
    coll = (wire.MSG_COLL_REQ, 0, 0, 0)
    with pytest.raises(ProgramError):
        wire.COLL.pack(*coll, 1 << 32, 2, 0x8000)  # seq outside 32 bits
    with pytest.raises(ProgramError):
        wire.COLL.pack(*coll, 1, 2, 0x10000)  # tag outside 16 bits
    with pytest.raises(ProgramError):
        wire.COLL.pack(*coll, 1, 2, 0x8000,
                       tail=bytes(wire.COLL_MAX_DATA + 1))
    with pytest.raises(ProgramError):
        wire.COLL.pack(wire.MSG_SYNC_REP, 0, 0, 0, 1, 2, 0)  # not a COLL type
    with pytest.raises(ProgramError):
        wire.SYNC_REP.pack(1, True)  # a field short


def test_coll_cap_keeps_the_delivery_fragment_whole():
    assert wire.COLL.size + wire.COLL_MAX_DATA == wire.MAX_PAYLOAD
    assert wire.MPI_FRAG.size + wire.COLL_MAX_DATA <= wire.MAX_PAYLOAD


def test_table_rejects_a_double_booked_type_byte():
    check_table(wire.TABLE)
    clash = {"A": Layout("x:B", types=64), "B": Layout("y:H", types=(3, 64))}
    with pytest.raises(ValueError, match="type byte 64"):
        check_table(clash)
    with pytest.raises(ValueError, match="payload cap"):
        check_table({"BIG": Layout(" ".join(f"f{i}:q" for i in range(12)))})


def test_table_rejects_a_node_field_with_another_code():
    check_table({"OK": Layout("x root:N origin:N", types=90)})
    for spec in ("requester:B x", "x origin:I", "dst_node:H", "rank:q"):
        with pytest.raises(ValueError, match="holds a node id"):
            check_table({"BAD": Layout(spec)})


#: every registry layout carrying a node id
NODE_LAYOUTS = sorted(name for name, layout in wire.TABLE.items()
                      if any(code == "N" for _f, code in layout.fields))


def test_node_fields_use_n_and_sender_fields_are_gone():
    assert NODE_LAYOUTS == ["DMA_REQ", "REL_SEND", "SYNC_TAG"]
    fields = {f for layout in wire.TABLE.values() for f, _c in layout.fields}
    assert "requester" not in fields
    assert [n for n, layout in wire.TABLE.items()
            if "origin" in dict(layout.fields)] == ["SYNC_TAG"]


@given(name=st.sampled_from(NODE_LAYOUTS),
       node=st.sampled_from([0, 1023, wire.MAX_NODE]))
def test_node_fields_round_trip_every_node_id(name, node):
    layout = wire.TABLE[name]
    values = [node if code == "N" else 0 for field, code in layout.fields
              if field != layout._tail]
    if len(layout.types) > 1:
        values.insert(0, layout.types[0])
    tail = b"ab" if layout._tail else b""
    back = layout.unpack(layout.pack(*values, tail=tail))
    assert back == tuple(values) + ((tail,) if layout._tail else ())
