"""Unit and property tests for the sparse memory model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import SparseMemory
from repro.isa.errors import MemoryError_


def test_uninitialized_reads_zero():
    memory = SparseMemory()
    assert memory.read(0x8000_0000, 8) == 0
    assert memory.read_byte(12345) == 0


def test_byte_write_read():
    memory = SparseMemory()
    memory.write_byte(100, 0xAB)
    assert memory.read_byte(100) == 0xAB


def test_little_endian_layout():
    memory = SparseMemory()
    memory.write(0x1000, 0x0102030405060708, 8)
    assert memory.read_byte(0x1000) == 0x08
    assert memory.read_byte(0x1007) == 0x01


def test_cross_page_access():
    memory = SparseMemory()
    addr = 0x1FFD  # spans a 4 KiB page boundary
    memory.write(addr, 0xAABBCCDDEE, 8)
    assert memory.read(addr, 8) == 0xAABBCCDDEE & ((1 << 64) - 1)


def test_signed_reads():
    memory = SparseMemory()
    memory.write(0x2000, 0xFF, 1)
    assert memory.read_signed(0x2000, 1) == -1
    memory.write(0x2001, 0x7F, 1)
    assert memory.read_signed(0x2001, 1) == 127


def test_invalid_size_rejected():
    memory = SparseMemory()
    with pytest.raises(MemoryError_):
        memory.read(0, 3)
    with pytest.raises(MemoryError_):
        memory.write(0, 1, 5)


def test_image_load():
    memory = SparseMemory(((0x10, b"\xaa\xbb"),))
    assert memory.read(0x10, 2) == 0xBBAA


def test_image_segment_across_a_page_boundary():
    payload = bytes(range(1, 11))
    memory = SparseMemory(((0x1FFA, payload), (0x5000, b"")))
    assert memory.dump(0x1FFA, 10) == payload
    assert memory.read(0x1FFE, 4) == 0x08070605
    # Two pages touched; the empty segment allocates none.
    assert memory.footprint_bytes == 2 * 4096


def test_later_image_segment_overwrites_an_earlier_one():
    memory = SparseMemory(((0x100, b"\x01\x02\x03"), (0x101, b"\x09")))
    assert memory.dump(0x100, 3) == b"\x01\x09\x03"


def test_dump():
    memory = SparseMemory()
    memory.write(0x3000, 0x1234, 2)
    assert memory.dump(0x3000, 2) == b"\x34\x12"


def test_footprint_counts_pages():
    memory = SparseMemory()
    memory.write_byte(0, 1)
    memory.write_byte(4096, 1)
    assert memory.footprint_bytes == 2 * 4096


@settings(max_examples=100, deadline=None)
@given(addr=st.integers(min_value=0, max_value=2 ** 48),
       value=st.integers(min_value=0, max_value=2 ** 64 - 1),
       size=st.sampled_from([1, 2, 4, 8]))
def test_write_read_round_trip(addr, value, size):
    memory = SparseMemory()
    memory.write(addr, value, size)
    assert memory.read(addr, size) == value & ((1 << (8 * size)) - 1)


@settings(max_examples=50, deadline=None)
@given(addr=st.integers(min_value=0, max_value=2 ** 32),
       value=st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1))
def test_signed_round_trip_64(addr, value):
    memory = SparseMemory()
    memory.write(addr, value & ((1 << 64) - 1), 8)
    assert memory.read_signed(addr, 8) == value
