"""Unit and property tests for the three counter architectures (Fig. 6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cores import SignalStream
from repro.isa.csrs import MCOUNTINHIBIT, mhpmevent_addr
from repro.pmu import (AddWiresCounterBank, ClassicOrCounter, CsrFile,
                       DistributedCounterBank, ScalarCounterBank,
                       encode_selector, make_counter_bank)

EVENTS = ["fetch_bubbles", "uops_issued"]


def feed(bank, stream):
    """Count *stream*, one signals mapping per cycle from 0, on *bank*."""
    bank.count(SignalStream.from_cycles(enumerate(stream)))


def test_scalar_counts_each_lane_separately():
    bank = ScalarCounterBank("boom", ["fetch_bubbles"])
    feed(bank, [{"fetch_bubbles": 0b101}, {"fetch_bubbles": 0b001}])
    assert bank.read_lane("fetch_bubbles", 0) == 2
    assert bank.read_lane("fetch_bubbles", 1) == 0
    assert bank.read_lane("fetch_bubbles", 2) == 1
    assert bank.read_event("fetch_bubbles") == 3


def test_scalar_counter_cost_scales_with_sources():
    bank = ScalarCounterBank("boom", EVENTS)
    feed(bank, [{"fetch_bubbles": 0b111, "uops_issued": 0b11111}])
    assert bank.counters_used() == 3 + 5


def test_adders_match_scalar_totals_exactly():
    stream = [{"fetch_bubbles": 0b110, "uops_issued": 0b10101},
              {"fetch_bubbles": 0b000, "uops_issued": 0b00111},
              {"fetch_bubbles": 0b111, "uops_issued": 0b00000}]
    scalar = ScalarCounterBank("boom", EVENTS)
    adders = AddWiresCounterBank("boom", EVENTS)
    feed(scalar, stream)
    feed(adders, stream)
    for event in EVENTS:
        assert adders.read_event(event) == scalar.read_event(event)
    assert adders.counters_used() == 2  # one per event


def test_adders_increment_width_and_chain_length():
    adders = AddWiresCounterBank("boom", ["uops_issued"])
    feed(adders, [{"uops_issued": 0b11111}])
    assert adders.increment_width("uops_issued") == 3  # counts 0..5
    assert adders.adder_chain_length("uops_issued") == 4


def test_distributed_needs_post_processing():
    bank = DistributedCounterBank("boom", ["fetch_bubbles"],
                                  sources={"fetch_bubbles": 4})
    # 4 sources -> 2-bit locals -> software value quantized to 4s.
    stream = [{"fetch_bubbles": 0b1111}] * 16
    feed(bank, stream)
    bank.drain()
    exact = bank.exact_event("fetch_bubbles")
    software = bank.read_event("fetch_bubbles")
    assert exact == 64
    assert software % 4 == 0
    assert software <= exact


def test_distributed_undercount_bounded_after_drain():
    """§IV-B: undercount <= sources * (2^N - 1) once flags drain."""
    bank = DistributedCounterBank("boom", ["fetch_bubbles"],
                                  sources={"fetch_bubbles": 4})
    feed(bank, [{"fetch_bubbles": 0b1011}] * 929)
    bank.drain()
    assert bank.undercount("fetch_bubbles") \
        <= bank.undercount_bound("fetch_bubbles")
    # The paper's example: error stays ~1.3% for ~929 events.
    exact = bank.exact_event("fetch_bubbles")
    error = bank.undercount("fetch_bubbles") / exact
    assert error <= 12 / (929 + 12) + 0.02


def test_distributed_single_source_still_counts():
    bank = DistributedCounterBank("boom", ["recovering"])
    feed(bank, [{"recovering": 1}] * 10)
    bank.drain()
    assert bank.exact_event("recovering") == 10


def test_distributed_zero_activity_reads_zero():
    bank = DistributedCounterBank("boom", ["recovering"])
    feed(bank, [{}] * 5)
    assert bank.read_event("recovering") == 0
    assert bank.undercount("recovering") == 0


def test_classic_or_counter_undercounts_concurrent_lanes():
    """The §II-A motivation: two events in one cycle count once."""
    classic = ClassicOrCounter("boom", ["uops_issued"])
    adders = AddWiresCounterBank("boom", ["uops_issued"])
    stream = [{"uops_issued": 0b111}] * 10
    feed(classic, stream)
    feed(adders, stream)
    assert classic.read() == 10
    assert adders.read_event("uops_issued") == 30


def test_classic_or_counter_rejects_cross_set_events():
    with pytest.raises(ValueError):
        ClassicOrCounter("boom", ["cycles", "icache_miss"])


def test_factory_dispatch():
    assert isinstance(make_counter_bank("scalar", "boom", EVENTS),
                      ScalarCounterBank)
    assert isinstance(make_counter_bank("adders", "boom", EVENTS),
                      AddWiresCounterBank)
    assert isinstance(make_counter_bank("distributed", "boom", EVENTS),
                      DistributedCounterBank)
    with pytest.raises(ValueError):
        make_counter_bank("quantum", "boom", EVENTS)


def test_unknown_event_rejected_at_construction():
    with pytest.raises(ValueError):
        ScalarCounterBank("boom", ["bogus"])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=31), min_size=1,
                max_size=300))
def test_property_adders_equal_popcount_sum(masks):
    adders = AddWiresCounterBank("boom", ["uops_issued"])
    feed(adders, [{"uops_issued": m} for m in masks])
    assert adders.read_event("uops_issued") \
        == sum(m.bit_count() for m in masks)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                max_size=400))
def test_property_distributed_exact_count_is_lossless(masks):
    """principal*2^N + pending flags + locals == true event count."""
    bank = DistributedCounterBank("boom", ["fetch_bubbles"],
                                  sources={"fetch_bubbles": 4})
    feed(bank, [{"fetch_bubbles": m} for m in masks])
    truth = sum(m.bit_count() for m in masks)
    assert bank.exact_event("fetch_bubbles") == truth


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                max_size=400))
def test_property_distributed_software_value_never_overcounts(masks):
    bank = DistributedCounterBank("boom", ["fetch_bubbles"],
                                  sources={"fetch_bubbles": 4})
    feed(bank, [{"fetch_bubbles": m} for m in masks])
    bank.drain()
    truth = sum(m.bit_count() for m in masks)
    assert bank.read_event("fetch_bubbles") <= truth
    assert truth - bank.read_event("fetch_bubbles") \
        <= bank.undercount_bound("fetch_bubbles")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                max_size=200))
def test_property_scalar_lane_sums_match_total(masks):
    bank = ScalarCounterBank("boom", ["fetch_bubbles"])
    feed(bank, [{"fetch_bubbles": m} for m in masks])
    total = sum(bank.read_lane("fetch_bubbles", lane) for lane in range(3))
    assert total == bank.read_event("fetch_bubbles")


def feed_masks(masks):
    return SignalStream.from_cycles(
        (cycle, {"fetch_bubbles": mask}) for cycle, mask in enumerate(masks))


def _bank_state(stream):
    bank = DistributedCounterBank("boom", ["fetch_bubbles"])
    bank.count(stream)
    return bank._states["fetch_bubbles"]


def _csr_state(stream):
    csr = CsrFile(core="boom", increment_mode="distributed")
    csr.write(mhpmevent_addr(3), encode_selector(["fetch_bubbles"], "boom"))
    csr.write(MCOUNTINHIBIT, 0)
    csr.count(stream)
    return csr.counter_for(3)._distributed


def _held(state):
    """principal*2^N + pending flags*2^N + local residues."""
    return ((state.principal + state.overflow.count(True)) * state.wrap
            + sum(state.locals_))


@pytest.mark.parametrize("state_after", [_bank_state, _csr_state],
                         ids=["bank", "csr"])
def test_distributed_growth_keeps_pending_flags(state_after):
    # Two 2-source cycles leave one flag pending; the 3-source cycle
    # grows the arbiter, which must carry that flag at the old wrap.
    masks = [0b11, 0b11, 0b111]
    state = state_after(feed_masks(masks))
    assert state.sources == 3
    assert _held(state) == 7


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                max_size=200).filter(any))
@pytest.mark.parametrize("state_after", [_bank_state, _csr_state],
                         ids=["bank", "csr"])
def test_property_distributed_growth_is_lossless(state_after, masks):
    """With unfixed sources every wider mask grows the arbiter."""
    state = state_after(feed_masks(masks))
    assert _held(state) == sum(mask.bit_count() for mask in masks)
