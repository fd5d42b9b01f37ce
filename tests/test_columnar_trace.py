"""Columnar trace backend: codec round-trip, laziness, window views."""

import pickle

import pytest

from repro.isa import ColumnarTrace, ExecutionError, execute
from repro.isa.columnar import unpack, unpack_window
from repro.workloads import build_program

from tests.test_trace_compiler import assert_traces_identical


@pytest.fixture(scope="module")
def trace():
    return execute(build_program("towers"))


def test_pack_unpack_round_trip(trace):
    restored = unpack(trace.pack())
    assert isinstance(restored, ColumnarTrace)
    assert_traces_identical(trace, restored)
    assert restored.program_name == trace.program_name


def test_unpack_rejects_corruption(trace):
    data = trace.pack()
    with pytest.raises(ExecutionError):
        unpack(b"NOPE" + data[4:])
    with pytest.raises(ExecutionError):
        unpack(data[:len(data) // 2])  # truncated columns
    with pytest.raises(ExecutionError):
        unpack(b"")


def test_lazy_indexing_matches_materialized_list(trace):
    fresh = unpack(trace.pack())  # nothing materialized yet
    assert fresh._materialized is None
    sampled = [fresh[0], fresh[len(fresh) // 2], fresh[-1]]
    assert fresh._materialized is None  # single indexing stays lazy
    full = fresh.instructions
    assert fresh._materialized is full
    for inst, expect in zip(
            (full[0], full[len(fresh) // 2], full[-1]), sampled):
        assert inst.index == expect.index
        assert inst.pc == expect.pc
        assert inst.mnemonic == expect.mnemonic
    with pytest.raises(IndexError):
        unpack(trace.pack())[len(fresh)]


def test_iteration_parity(trace):
    lazy = list(iter(unpack(trace.pack())))
    assert len(lazy) == len(trace)
    assert [i.pc for i in lazy] == [i.pc for i in trace.instructions]


def test_summary_helpers_match_interpreted_trace():
    """The column-native helpers agree with counts over the ``DynInst`` view."""
    trace = execute(build_program("brmiss"))
    histogram = {}
    for inst in trace.instructions:
        histogram[inst.cls] = histogram.get(inst.cls, 0) + 1
    branches = [inst for inst in trace.instructions if inst.is_branch]
    taken = sum(inst.taken for inst in branches)
    assert trace.class_histogram() == histogram
    assert trace.branch_count() == len(branches) > 0
    assert trace.mispredictable_summary() == {
        "branches": len(branches), "taken": taken,
        "not_taken": len(branches) - taken}


def test_pickle_ships_packed_bytes(trace):
    payload = pickle.dumps(trace)
    # The wire format is the pack() codec, not a DynInst object graph.
    assert b"RTRC1" in payload
    assert b"DynInst" not in payload
    assert_traces_identical(trace, pickle.loads(payload))


def test_getitem_slice_has_list_semantics(trace):
    fresh = unpack(trace.pack())
    window = fresh[2:10]
    assert isinstance(window, list)
    assert fresh._materialized is None  # slicing stays lazy
    expect = trace.instructions[2:10]
    assert [i.index for i in window] == [i.index for i in expect]
    assert [i.pc for i in window] == [i.pc for i in expect]
    # Extended slices and the materialized path agree with list
    # semantics too.
    assert [i.pc for i in fresh[10:2:-2]] == \
        [i.pc for i in trace.instructions[10:2:-2]]
    assert [i.pc for i in fresh[-3:]] == \
        [i.pc for i in trace.instructions[-3:]]
    fresh.instructions  # materialize
    assert [i.pc for i in fresh[2:10]] == [i.pc for i in expect]


def test_slice_is_a_shared_static_view(trace):
    start, stop = 5, len(trace) // 2
    view = trace.slice(start, stop)
    assert len(view) == stop - start
    assert view.static_ops is trace.static_ops
    assert view._timing_tables is trace._timing_tables
    assert view.program_name == f"{trace.program_name}[{start}:{stop}]"
    expect = trace.instructions[start:stop]
    got = view.instructions
    assert [i.pc for i in got] == [i.pc for i in expect]
    assert [i.mnemonic for i in got] == [i.mnemonic for i in expect]
    assert [i.mem_addr for i in got] == [i.mem_addr for i in expect]
    assert [i.taken for i in got] == [i.taken for i in expect]
    for bad in ((-1, 4), (4, 2), (0, len(trace) + 1)):
        with pytest.raises(ValueError):
            trace.slice(*bad)


def test_window_codec_round_trips_byte_identical(trace):
    static_blob = trace.pack_static()
    start, stop = 3, 40
    restored = unpack_window(static_blob, trace.pack_window(start, stop))
    # The reassembled window is byte-for-byte the slice() view.
    assert restored.pack() == trace.slice(start, stop).pack()
    with pytest.raises(ValueError):
        trace.pack_window(10, len(trace) + 1)
    with pytest.raises(ExecutionError):
        unpack_window(static_blob, b"NOPE")
    with pytest.raises(ExecutionError):
        unpack_window(b"NOPE", trace.pack_window(start, stop))


def test_window_unpack_shares_one_static_table(trace):
    static_blob = trace.pack_static()
    a = unpack_window(static_blob, trace.pack_window(0, 16))
    b = unpack_window(static_blob, trace.pack_window(16, 64))
    # K windows shipped to one worker share a single parsed StaticOp
    # tuple and one compiled timing-table cache — no duplication.
    assert a.static_ops is b.static_ops
    assert a._timing_tables is b._timing_tables
