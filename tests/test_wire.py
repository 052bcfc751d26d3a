"""The wire registry (`repro.common.wire`): pinned bytes, length guards,
type-byte uniqueness.

The hex strings below were recorded from the hand-written packers the
registry replaced (``firmware/proto.py``, ``collectives/wire.py``,
``traffic/wire.py``, the blockxfer/S-COMA/update-release/MCS packers and
the inline mini-MPI fragment header), so every message keeps its length
and its bytes.  Type bytes claimed twice were renumbered out of the
application range; for those, only byte 0 differs from the recording
(``RENUMBERED``).  A field turned into pad bytes packs 0, so a row whose
recorded value there was not 0 reads 0 in those bytes now.
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
    ("COLL", (wire.MSG_COLL_REQ, 0, 0, 0, 0), b"",
     "10000000000000000000000000"),
    ("COLL", (wire.MSG_COLL_DOWN, 3, U32, 255, 0xFFFF),
     full(75), "12030000ffffffff00ffffff4b" + full(75).hex()),
    ("COLL", (wire.MSG_COLL_UP, 3, 7, 2, 0x8001),
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
    ("SYNC_REQ", (0, 0, 0, 0, 0), b"", "16" + "00" * 34),
    ("SYNC_REQ", (U32, U32, U32, 255, QMAX), b"",
     "16" + "ff" * 8 + "00" * 5 + "ff" * 5
     + "7fffffffffffffff0000000000000000"),
    ("SYNC_REP", (0, 0), b"", "17" + "00" * 13),
    ("SYNC_REP", (U32, QMIN), b"", "17ffffffff008000000000000000"),
    ("SYNC_REP", (5, QMAX), b"", "1700000005007fffffffffffffff"),
    ("SYNC_INJECT", (), bytes.fromhex("00" * 36 + "0000ffff00000001"),
     "18" + "00" * 36 + "0000ffff00000001"),
    ("SYNC_TREE_REP", (0, 0, 0), b"", "1a" + "00" * 16),
    ("SYNC_TREE_REP", (U32, U32, QMIN), b"",
     "1affffffffffffffff8000000000000000"),
    ("SYNC_TREE_REP", (7, 3, QMAX), b"",
     "1a00000007000000037fffffffffffffff"),
    ("SYNC_CBAR", (0, 0, 0, 0, 0), b"", "1b" + "00" * 26),
    ("SYNC_CBAR", (U32, U32, U32, 255, QMIN), b"",
     "1b" + "ff" * 8 + "00" * 4 + "ff" * 5 + "00" + "8000000000000000"),
    # a combined tag carries origin NO_NODE
    ("SYNC_TAG", (0, 0, 0, 0, 0, 0, 0, 0, wire.NO_NODE), b"",
     "00" * 36 + "0000ffff00000000"),
    ("SYNC_TAG", (255, 255, U32, U32, U32, 255, QMIN, U32,
                  wire.MAX_NODE), b"",
     "ff" * 14 + "00" + "ff" + "8000000000000000" + "00" * 8 + "ffffffff"
     + "0000fffe" + "00000000"),
    ("SYNC_TAG", (1, 1, 9, 3, 11, 3, -17, 42, 6), b"",
     "010100000009000000030000000b0003ffffffffffffffef"
     "00000000000000000000002a0000000600000000"),
    ("KV_REQ", (0, 0, 0, 0), b"", "40" + "00" * 14),
    ("KV_REQ", (2, 255, U32, U32), full(73),
     "4002ff0000" + "ff" * 8 + "0000" + full(73).hex()),
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


#: fields no ``unpack`` site reads, with the reason each stays on the wire.
UNREAD_FIELDS = {
    "KV_REP.status": "a GET's hit or miss, which a real client would "
                     "consume; the workloads check the store itself",
    "PS_REP.step": "the step a parameter-server reply answers; the "
                   "workloads check the server's state",
    "PS_REP.block": "the block a parameter-server reply answers; the "
                    "workloads check the server's state",
    "PS_REP.weight": "the updated weight, a result a real worker would "
                     "consume; the workloads check the server's state",
}


def _unpacked_layout(call):
    """The registry layout a ``<LAYOUT>.unpack(...)`` call decodes."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "unpack"):
        return None
    owner = func.value
    name = owner.id if isinstance(owner, ast.Name) else \
        owner.attr if isinstance(owner, ast.Attribute) else None
    return wire.TABLE.get(name)


def _slots_read(call, parent):
    """The unpack result indices one call site reads (None: all)."""
    if isinstance(parent, ast.Expr):
        return set()
    if isinstance(parent, ast.Subscript) and parent.value is call:
        index = parent.slice
        if isinstance(index, ast.Constant) and isinstance(index.value, int):
            return {index.value}
        return None
    if (isinstance(parent, ast.Assign) and len(parent.targets) == 1
            and isinstance(parent.targets[0], (ast.Tuple, ast.List))):
        names = parent.targets[0].elts
        return {i for i, slot in enumerate(names)
                if not (isinstance(slot, ast.Name)
                        and slot.id.startswith("_"))}
    return None


def test_every_field_has_a_reader():
    """A named field no ``unpack`` site reads is a header byte that costs
    wire time and tells the receiver nothing: make it a pad.  A tuple
    slot named ``_...`` does not read its field, a subscript reads its
    index, a bare statement reads nothing; any other use reads every
    field.  The type slot of a multi-type layout (the dispatch key) and
    tails are left out."""
    registry = pathlib.Path(wire.__file__).resolve()
    read = {name: set() for name in wire.TABLE}
    for path in sorted(registry.parent.parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            layout = (_unpacked_layout(node)
                      if isinstance(node, ast.Call) else None)
            if layout is None:
                continue
            # the unpack result: [type,] fields [, tail]; None is not a
            # named field
            slots = [None] if layout._multi else []
            slots += [f for f, _c in layout.fields if f != layout._tail]
            slots += [None] if layout._tail else []
            seen = _slots_read(node, parents.get(node))
            read[layout.name] |= set(slots) if seen is None else \
                {slots[i] for i in seen}
    unread = sorted(f"{name}.{field}" for name, layout in wire.TABLE.items()
                    for field, _code in layout.fields
                    if field != layout._tail and field not in read[name])
    assert unread == sorted(UNREAD_FIELDS)


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
    coll = (wire.MSG_COLL_REQ, 0)
    with pytest.raises(ProgramError):
        wire.COLL.pack(*coll, 1 << 32, 2, 0x8000)  # seq outside 32 bits
    with pytest.raises(ProgramError):
        wire.COLL.pack(*coll, 1, 2, 0x10000)  # tag outside 16 bits
    with pytest.raises(ProgramError):
        wire.COLL.pack(*coll, 1, 2, 0x8000,
                       tail=bytes(wire.COLL_MAX_DATA + 1))
    with pytest.raises(ProgramError):
        wire.COLL.pack(wire.MSG_SYNC_REP, 0, 1, 2, 0)  # not a COLL type
    with pytest.raises(ProgramError):
        wire.SYNC_REP.pack(1)  # a field short


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
