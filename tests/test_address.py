"""Address maps: registration, lookup, overlap rejection, carving."""

import pytest

from repro.common.errors import AddressError
from repro.mem.address import AccessMode, AddressMap, Region


def _map():
    m = AddressMap()
    m.add(Region("dram", 0x0, 0x1000, AccessMode.CACHED, owner="dram"))
    m.add(Region("niu", 0x7000_0000, 0x1000, AccessMode.UNCACHED))
    return m


def test_lookup_hits():
    m = _map()
    assert m.lookup(0x0).name == "dram"
    assert m.lookup(0xFFF).name == "dram"
    assert m.lookup(0x7000_0010, 8).name == "niu"


def test_lookup_unmapped():
    m = _map()
    with pytest.raises(AddressError, match="not mapped"):
        m.lookup(0x2000)
    with pytest.raises(AddressError):
        m.lookup(0x6FFF_FFFF)


def test_lookup_straddle_rejected():
    m = _map()
    with pytest.raises(AddressError, match="straddles"):
        m.lookup(0xFFC, 8)


def test_overlap_rejected():
    m = _map()
    with pytest.raises(AddressError, match="overlaps"):
        m.add(Region("bad", 0x800, 0x1000, AccessMode.CACHED))
    with pytest.raises(AddressError, match="overlaps"):
        m.add(Region("bad2", 0x6FFF_FF00, 0x200, AccessMode.CACHED))


def test_adjacent_allowed():
    m = _map()
    m.add(Region("next", 0x1000, 0x1000, AccessMode.CACHED))
    assert m.lookup(0x1000).name == "next"


def test_find_by_name():
    m = _map()
    assert m.find("niu").base == 0x7000_0000
    with pytest.raises(AddressError):
        m.find("nothere")


def test_region_offset_and_contains():
    r = Region("r", 0x100, 0x100, AccessMode.CACHED)
    assert r.contains(0x100)
    assert r.contains(0x1FF)
    assert not r.contains(0x200)
    assert not r.contains(0x1F0, 0x20)
    assert r.offset(0x180) == 0x80
    with pytest.raises(AddressError):
        r.offset(0x200)


def test_region_validation():
    with pytest.raises(ValueError):
        Region("r", 0, 0, AccessMode.CACHED)
    with pytest.raises(ValueError):
        Region("r", -4, 16, AccessMode.CACHED)


def test_carve_middle():
    m = _map()
    carved = m.carve("window", 0x400, 0x200, AccessMode.UNCACHED)
    assert carved.mode is AccessMode.UNCACHED
    assert carved.owner == "dram"  # inherited
    assert m.lookup(0x0).name == "dram"
    assert m.lookup(0x500).name == "window"
    assert m.lookup(0x700).name == "dram+"
    assert m.lookup(0x700).owner == "dram"


def test_carve_at_start():
    m = _map()
    m.carve("w", 0x0, 0x100, AccessMode.BURST)
    assert m.lookup(0x0).name == "w"
    assert m.lookup(0x100).name == "dram+"


def test_carve_at_end():
    m = _map()
    m.carve("w", 0xF00, 0x100, AccessMode.BURST)
    assert m.lookup(0xEFF).name == "dram"
    assert m.lookup(0xF00).name == "w"


def test_carve_with_new_owner():
    m = _map()
    carved = m.carve("w", 0x400, 0x100, AccessMode.UNCACHED, owner="custom")
    assert carved.owner == "custom"


def test_regions_sorted():
    m = _map()
    m.add(Region("mid", 0x2000, 0x100, AccessMode.CACHED))
    bases = [r.base for r in m.regions()]
    assert bases == sorted(bases)


def test_lookup_memo_follows_a_carve():
    m = _map()
    # the first lookup fills the per-address memo
    assert m.lookup(0x500, 4).name == "dram"
    assert m.lookup(0x500, 4).name == "dram"
    m.carve("window", 0x400, 0x200, AccessMode.UNCACHED)
    hit = m.lookup(0x500, 4)
    assert hit.name == "window" and hit.mode is AccessMode.UNCACHED
    # a remembered address still enforces the access length
    with pytest.raises(AddressError):
        m.lookup(0x5FC, 8)
    assert m.lookup(0x5FC, 4).name == "window"
