"""Unit tests for the TLB model."""

from repro.uarch.tlb import Tlb


def test_tlb_miss_then_hit():
    tlb = Tlb(4)
    assert not tlb.access(0x1000)
    assert tlb.access(0x1FFF)     # same 4 KiB page
    assert not tlb.access(0x2000)


def test_tlb_lru_eviction():
    tlb = Tlb(2)
    tlb.access(0x1000)
    tlb.access(0x2000)
    tlb.access(0x1000)            # refresh
    tlb.access(0x3000)            # evicts 0x2000
    assert tlb.access(0x1000)
    assert not tlb.access(0x2000)


def test_tlb_flush():
    tlb = Tlb(4)
    tlb.access(0x1000)
    tlb.flush()
    assert not tlb.access(0x1000)
