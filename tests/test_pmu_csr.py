"""Unit tests for the CSR-file model."""

import pytest

from repro.isa.csrs import (MCOUNTINHIBIT, MCYCLE, MINSTRET,
                            mhpmcounter_addr, mhpmevent_addr)
from repro.cores import SignalStream
from repro.pmu import CsrFile, encode_selector


def cycles(*signals) -> SignalStream:
    """A recorded stream of *signals*, one mapping per cycle from 0."""
    return SignalStream.from_cycles(enumerate(signals))


def programmed(core="boom", mode="adders", event="fetch_bubbles",
               index=3) -> CsrFile:
    csr = CsrFile(core=core, increment_mode=mode)
    csr.write(mhpmevent_addr(index), encode_selector([event], core))
    csr.write(MCOUNTINHIBIT, 0)
    return csr


def test_counters_start_inhibited():
    csr = CsrFile()
    csr.write(mhpmevent_addr(3),
              encode_selector(["fetch_bubbles"], "boom"))
    csr.count(cycles({"fetch_bubbles": 0b111}))
    assert csr.read(mhpmcounter_addr(3)) == 0
    assert csr.read(MCYCLE) == 0


def test_clearing_inhibit_starts_counting():
    csr = programmed()
    csr.count(cycles({"fetch_bubbles": 0b111}))
    assert csr.read(mhpmcounter_addr(3)) == 3  # adders mode popcounts
    assert csr.read(MCYCLE) == 1


def test_classic_mode_increments_at_most_one():
    csr = programmed(mode="classic")
    csr.count(cycles({"fetch_bubbles": 0b111}, {"fetch_bubbles": 0b001}))
    assert csr.read(mhpmcounter_addr(3)) == 2


def test_distributed_mode_needs_correction():
    csr = programmed(mode="distributed")
    csr.count(cycles(*[{"fetch_bubbles": 0b111}] * 32))
    csr.drain()
    raw = csr.read(mhpmcounter_addr(3))
    corrected = csr.counter_for(3).corrected_value()
    assert corrected > raw            # x 2^N post-processing applied
    assert corrected <= 96            # never overcounts the 96 events
    assert corrected >= 96 - csr.counter_for(3)._distributed.sources * \
        (csr.counter_for(3)._distributed.wrap - 1) - 1


def test_minstret_counts_retired():
    csr = programmed()
    csr.count(cycles({"instr_retired": 0b11}, {"instr_retired": 0b1}))
    assert csr.read(MINSTRET) == 3


def test_selector_readback_and_reprogram_resets():
    csr = programmed()
    selector = encode_selector(["fetch_bubbles"], "boom")
    assert csr.read(mhpmevent_addr(3)) == selector
    csr.count(cycles({"fetch_bubbles": 1}))
    csr.write(mhpmevent_addr(3), encode_selector(["recovering"], "boom"))
    assert csr.read(mhpmcounter_addr(3)) == 0


def test_counter_value_write():
    csr = programmed()
    csr.write(mhpmcounter_addr(3), 999)
    assert csr.read(mhpmcounter_addr(3)) == 999


def test_unknown_csr_ignored_and_reads_zero():
    csr = CsrFile()
    csr.write(0x7C0, 5)
    assert csr.read(0x7C0) == 0


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        CsrFile(increment_mode="magic")


def test_multiple_events_one_counter_adders():
    csr = CsrFile(core="boom", increment_mode="adders")
    selector = encode_selector(["icache_miss", "dcache_miss"], "boom")
    csr.write(mhpmevent_addr(4), selector)
    csr.write(MCOUNTINHIBIT, 0)
    csr.count(cycles({"icache_miss": 1, "dcache_miss": 1}))
    assert csr.read(mhpmcounter_addr(4)) == 2  # multi-bit increment


def test_cross_set_selector_rejected_by_hardware():
    csr = CsrFile(core="boom")
    bad = (int(0) | (1 << 8)) | (1 << (8 + 1))  # cycles + instr_retired ok
    # construct a genuinely cross-set selector by hand: set id 0 with a
    # bit that only exists in set 2 simply selects nothing; instead
    # verify the encoder is the guard:
    with pytest.raises(ValueError):
        encode_selector(["cycles", "icache_miss"], "boom")


def test_corrected_values_listing():
    csr = programmed()
    csr.count(cycles({"fetch_bubbles": 0b11}))
    values = csr.corrected_values()
    assert values == {3: 2}


def test_inhibit_bit_granularity():
    csr = CsrFile(core="boom", increment_mode="adders")
    csr.write(mhpmevent_addr(3), encode_selector(["recovering"], "boom"))
    csr.write(mhpmevent_addr(4), encode_selector(["icache_miss"], "boom"))
    # inhibit only counter 4
    csr.write(MCOUNTINHIBIT, 1 << 4)
    csr.count(cycles({"recovering": 1, "icache_miss": 1}))
    assert csr.read(mhpmcounter_addr(3)) == 1
    assert csr.read(mhpmcounter_addr(4)) == 0
