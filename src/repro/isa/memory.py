"""Sparse byte-addressable memory for :func:`repro.isa.execute`.

Backed by fixed-size pages allocated on demand, so programs can scatter
data across the 64-bit address space without large allocations.  All
multi-byte accesses are little-endian, matching RISC-V.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from .errors import MemoryError_

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1


class SparseMemory:
    """Sparse little-endian memory built from 4 KiB pages."""

    __slots__ = ("_pages",)

    def __init__(self, segments: Iterable[Tuple[int, bytes]] = ()) -> None:
        """Start from the ``(base, bytes)`` *segments* of an image.

        Each segment is copied into its pages by slice assignment, one
        slice per page it touches; a later segment overwrites an
        earlier one where they overlap.
        """
        self._pages: Dict[int, bytearray] = {}
        for addr, payload in segments:
            view = memoryview(payload)
            while view:
                offset = addr & PAGE_MASK
                chunk = view[:PAGE_SIZE - offset]
                self._page(addr)[offset:offset + len(chunk)] = chunk
                addr += len(chunk)
                view = view[len(chunk):]

    def _page(self, addr: int) -> bytearray:
        page_num = addr >> PAGE_SHIFT
        page = self._pages.get(page_num)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_num] = page
        return page

    def read_byte(self, addr: int) -> int:
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return 0
        return page[addr & PAGE_MASK]

    def write_byte(self, addr: int, value: int) -> None:
        self._page(addr)[addr & PAGE_MASK] = value & 0xFF

    def read(self, addr: int, size: int) -> int:
        """Read *size* bytes at *addr* as an unsigned little-endian integer."""
        if size not in (1, 2, 4, 8):
            raise MemoryError_(f"unsupported access size {size}")
        offset = addr & PAGE_MASK
        if offset + size <= PAGE_SIZE:
            page = self._pages.get(addr >> PAGE_SHIFT)
            if page is None:
                return 0
            return int.from_bytes(page[offset:offset + size], "little")
        value = 0
        for i in range(size):
            value |= self.read_byte(addr + i) << (8 * i)
        return value

    def write(self, addr: int, value: int, size: int) -> None:
        """Write the low *size* bytes of *value* at *addr*, little-endian."""
        if size not in (1, 2, 4, 8):
            raise MemoryError_(f"unsupported access size {size}")
        value &= (1 << (8 * size)) - 1
        offset = addr & PAGE_MASK
        if offset + size <= PAGE_SIZE:
            page = self._page(addr)
            page[offset:offset + size] = value.to_bytes(size, "little")
            return
        for i in range(size):
            self.write_byte(addr + i, (value >> (8 * i)) & 0xFF)

    def read_signed(self, addr: int, size: int) -> int:
        """Read and sign-extend a *size*-byte value."""
        value = self.read(addr, size)
        sign_bit = 1 << (8 * size - 1)
        if value & sign_bit:
            value -= 1 << (8 * size)
        return value

    def dump(self, addr: int, size: int) -> bytes:
        """Return *size* raw bytes starting at *addr*."""
        return bytes(self.read_byte(addr + i) for i in range(size))

    @property
    def footprint_bytes(self) -> int:
        """Total bytes of allocated pages (a proxy for working-set size)."""
        return len(self._pages) * PAGE_SIZE
