"""Unit + property tests for trace bundles and the binary bridge."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cores import SignalStream
from repro.trace import (CycleTracer, DmaTraceReader, TraceBridge,
                         TraceBundle, TraceField, boom_tma_bundle,
                         rocket_frontend_bundle)


def cycles(signals) -> SignalStream:
    """A recorded stream of *signals*, one mapping per cycle from 0."""
    return SignalStream.from_cycles(enumerate(signals))


def small_bundle() -> TraceBundle:
    return TraceBundle([TraceField("a"), TraceField("b", 3),
                        TraceField("c", 2)], name="small")


def test_bundle_layout_offsets():
    bundle = small_bundle()
    assert bundle.offset_of("a") == (0, 1)
    assert bundle.offset_of("b") == (1, 3)
    assert bundle.offset_of("c") == (4, 2)
    assert bundle.bits_per_cycle == 6
    assert bundle.bytes_per_cycle == 1


def test_bundle_pack_unpack():
    bundle = small_bundle()
    signals = {"a": 1, "b": 0b101, "c": 0b10}
    record = bundle.pack(signals)
    assert bundle.unpack(record) == signals


def test_pack_masks_out_of_range_lanes():
    bundle = small_bundle()
    record = bundle.pack({"b": 0b11111})
    assert bundle.unpack(record)["b"] == 0b111


def test_bundle_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        TraceBundle([TraceField("x"), TraceField("x")])
    with pytest.raises(ValueError):
        TraceBundle([])
    with pytest.raises(ValueError):
        TraceField("bad", 0)


def test_default_bundles_have_expected_signals():
    frontend = rocket_frontend_bundle()
    for name in ("icache_miss", "ibuf_valid", "ibuf_ready",
                 "recovering", "fetch_bubbles"):
        assert name in frontend
    boom = boom_tma_bundle(3, 5)
    assert boom.offset_of("uops_issued")[1] == 5
    assert boom.offset_of("uops_retired")[1] == 3


def test_tracer_records_and_extracts_series():
    bundle = small_bundle()
    tracer = CycleTracer(bundle)
    tracer.record(cycles([{"a": 1}, {"b": 0b110}]))
    assert len(tracer) == 2
    assert tracer.signal("a") == [1, 0]
    assert tracer.signal("b") == [0, 0b110]


def test_tracer_start_and_max_cycles():
    bundle = small_bundle()
    tracer = CycleTracer(bundle, start_cycle=2, max_cycles=3)
    tracer.record(cycles([{"a": 1}] * 10))
    assert len(tracer) == 3
    assert tracer.first_cycle == 2


def test_bridge_roundtrip():
    bundle = small_bundle()
    tracer = CycleTracer(bundle)
    tracer.record(cycles({"a": cycle & 1, "b": cycle & 7,
                          "c": (cycle >> 1) & 3} for cycle in range(100)))
    blob = TraceBridge(bundle, chunk_cycles=16).encode(tracer)
    reader = DmaTraceReader(blob)
    first, records = reader.read_all()
    assert first == 0
    assert records == tracer.records
    series = DmaTraceReader(blob).signals()
    assert series["b"] == tracer.signal("b")


def test_bridge_chunking():
    bundle = small_bundle()
    tracer = CycleTracer(bundle)
    tracer.record(cycles([{"a": 1}] * 50))
    blob = TraceBridge(bundle, chunk_cycles=20).encode(tracer)
    chunks = list(DmaTraceReader(blob).chunks())
    assert [len(r) for _, r in chunks] == [20, 20, 10]
    assert [first for first, _ in chunks] == [0, 20, 40]


def test_reader_rejects_bad_magic():
    with pytest.raises(ValueError):
        DmaTraceReader(b"XXXX" + b"\x00" * 16)


def test_reader_rejects_truncated_chunk():
    bundle = small_bundle()
    tracer = CycleTracer(bundle)
    tracer.record(cycles([{"a": 1}]))
    blob = TraceBridge(bundle).encode(tracer)
    with pytest.raises(ValueError):
        list(DmaTraceReader(blob[:-1]).chunks())


def test_decoded_bundle_matches_source_layout():
    bundle = boom_tma_bundle(3, 5)
    tracer = CycleTracer(bundle)
    tracer.record(cycles([{"uops_issued": 0b10101}]))
    reader = DmaTraceReader(TraceBridge(bundle).encode(tracer))
    assert reader.bundle.offset_of("uops_issued") \
        == bundle.offset_of("uops_issued")


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 7), st.integers(0, 3)),
    min_size=1, max_size=200))
def test_property_bridge_roundtrip_any_stream(cycles):
    bundle = small_bundle()
    tracer = CycleTracer(bundle)
    tracer.record(SignalStream.from_cycles(
        (index, {"a": a, "b": b, "c": c})
        for index, (a, b, c) in enumerate(cycles)))
    blob = TraceBridge(bundle, chunk_cycles=7).encode(tracer)
    _, records = DmaTraceReader(blob).read_all()
    assert records == tracer.records


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(["a", "b", "c"]),
                       st.integers(0, 7), max_size=3))
def test_property_pack_unpack_inverse(signals):
    bundle = small_bundle()
    unpacked = bundle.unpack(bundle.pack(signals))
    for name in ("a", "b", "c"):
        _, width = bundle.offset_of(name)
        expected = signals.get(name, 0) & ((1 << width) - 1)
        assert unpacked[name] == expected
