"""Byte backing stores: bounds checks, word accessors, views, and the
copy-on-write isolation of a forked process."""

import os

import pytest

from repro.common.errors import AddressError
from repro.mem.backing import ByteBacking


def test_read_write_roundtrip():
    b = ByteBacking(256)
    b.write(10, b"hello")
    assert b.read(10, 5) == b"hello"
    assert b.read(0, 10) == bytes(10)


def test_bounds_low():
    b = ByteBacking(16)
    with pytest.raises(AddressError):
        b.read(-1, 4)


def test_bounds_high():
    b = ByteBacking(16)
    with pytest.raises(AddressError):
        b.write(14, b"toolong")
    with pytest.raises(AddressError):
        b.read(16, 1)


def test_exact_end_allowed():
    b = ByteBacking(16)
    b.write(12, b"abcd")
    assert b.read(12, 4) == b"abcd"


def test_negative_length():
    with pytest.raises(AddressError):
        ByteBacking(16).read(0, -1)


def test_u32_big_endian():
    b = ByteBacking(16)
    b.write_u32(4, 0x0102_0304)
    assert b.read(4, 4) == b"\x01\x02\x03\x04"
    assert b.read_u32(4) == 0x0102_0304


def test_u64_big_endian():
    b = ByteBacking(16)
    b.write_u64(8, 0x1122_3344_5566_7788)
    assert b.read_u64(8) == 0x1122_3344_5566_7788


def test_u32_truncates():
    b = ByteBacking(8)
    b.write_u32(0, 0x1_0000_0001)
    assert b.read_u32(0) == 1


def test_fill():
    b = ByteBacking(32)
    b.fill(8, 16, 0xAB)
    assert b.read(8, 16) == b"\xab" * 16
    assert b.read(0, 8) == bytes(8)
    with pytest.raises(AddressError):
        b.fill(0, 4, 300)


def test_fill_constructor():
    b = ByteBacking(8, fill=0x5A)
    assert b.read(0, 8) == b"\x5a" * 8


def test_size_validation():
    with pytest.raises(AddressError):
        ByteBacking(0)


def test_fill_constructor_spans_pages():
    b = ByteBacking(3 * 4096 + 5, fill=0xA5)
    assert b.read(4090, 12) == b"\xa5" * 12
    assert b.read(b.size - 5, 5) == b"\xa5" * 5
    with pytest.raises(AddressError):
        b.read(b.size - 4, 5)


def test_view_aliases_live_store():
    b = ByteBacking(64)
    b.write(8, b"before")
    v = b.view(8, 6)
    b.write(8, b"after!")
    assert bytes(v) == b"after!"
    b.write_parts(8, [b"ab", memoryview(b"cdef")])
    assert bytes(v) == b"abcdef"
    assert v.readonly
    with pytest.raises(TypeError):
        v[0] = 0


def test_view_and_write_parts_bounds():
    b = ByteBacking(16)
    with pytest.raises(AddressError):
        b.view(8, 9)
    with pytest.raises(AddressError):
        b.write_parts(12, [b"ab", b"cdef"])
    with pytest.raises(AddressError):
        b.fill(15, 2, 1)


def _forked(child_body):
    """Run ``child_body()`` in a forked child after the parent's go-ahead;
    returns ``(release, wait)``: ``release()`` lets the child start,
    ``wait()`` returns its exit status (0 = every child assertion held)."""
    go_r, go_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never return into pytest
        status = 1
        try:
            os.close(go_w)
            os.read(go_r, 1)
            child_body()
            status = 0
        finally:
            os._exit(status)
    os.close(go_r)

    def release():
        os.write(go_w, b"x")
        os.close(go_w)

    def wait():
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    return release, wait


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_writes_invisible_to_parent():
    b = ByteBacking(2 * 4096)
    b.write(0, b"parent")
    view = b.view(0, 6)

    def child():
        assert b.read(0, 6) == b"parent"
        b.write(0, b"child!")
        b.write(4096, b"far")
        assert bytes(view) == b"child!"
        assert b.read(4096, 3) == b"far"

    release, wait = _forked(child)
    release()
    assert wait() == 0
    assert b.read(0, 6) == b"parent"
    assert bytes(view) == b"parent"
    assert b.read(4096, 3) == bytes(3)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_parent_writes_after_fork_invisible_to_child():
    b = ByteBacking(4096, fill=0x11)

    def child():
        assert b.read(0, 8) == b"\x11" * 8
        assert b.read(100, 4) == b"\x11" * 4

    release, wait = _forked(child)
    b.write(0, b"parent!!")
    b.fill(100, 4, 0x22)
    release()
    assert wait() == 0
    assert b.read(0, 8) == b"parent!!"
