"""Columnar trace backend: codec round-trip, laziness, core parity."""

import pickle

import pytest

from repro.cores import config_by_name
from repro.isa import (ColumnarTrace, ExecutionError, assemble, execute,
                       execute_compiled)
from repro.isa.columnar import unpack, unpack_window
from repro.isa.dyn_trace import DynamicTrace, DynInst
from repro.isa.instructions import InstrClass
from repro.pmu.harness import make_core
from repro.workloads import build_program

from tests.test_trace_compiler import assert_traces_identical


@pytest.fixture(scope="module")
def trace():
    return execute_compiled(build_program("towers"))


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
    program = build_program("brmiss")
    interpreted = execute(program)
    columnar = execute_compiled(program)
    assert columnar.class_histogram() == interpreted.class_histogram()
    assert columnar.branch_count() == interpreted.branch_count()
    assert (columnar.mispredictable_summary()
            == interpreted.mispredictable_summary())


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


@pytest.mark.parametrize("config_name", ["rocket", "small-boom"])
@pytest.mark.parametrize("observed", [False, True])
def test_cores_accept_columnar_traces(config_name, observed):
    program = build_program("median")
    interpreted = execute(program)
    columnar = execute_compiled(program)
    config = config_by_name(config_name)
    cores = [make_core(config), make_core(config)]
    if observed:
        for core in cores:
            core.add_observer(_NullObserver())
    baseline = cores[0].run(interpreted)
    result = cores[1].run(columnar)
    assert result.cycles == baseline.cycles
    assert result.instret == baseline.instret
    assert result.events == baseline.events


class _NullObserver:
    def on_cycle(self, cycle, signals):
        pass


_CSR_WRITES_ASM = """.text
_start:
    li t0, 12
    csrw mhpmevent3, t0
    csrwi mcounteren, 7
    csrw mhpmcounter3, zero
    addi t1, t0, 1
    li a7, 93
    ecall
"""


@pytest.mark.parametrize("program", ["median", "csr-writes"])
def test_from_dynamic_round_trips_materialize_one(program):
    if program == "median":
        interpreted = execute(build_program("median"))
    else:
        interpreted = execute(assemble(_CSR_WRITES_ASM, name=program))
        assert sum(inst.csr_write is not None for inst in interpreted) == 3
    columnar = ColumnarTrace.from_dynamic(interpreted)
    assert len(columnar) == len(interpreted)
    assert len(columnar.static_ops) <= len(interpreted)
    assert (columnar.program_name, columnar.exit_code, columnar.halt_reason,
            columnar.final_int_regs, columnar.instret) == \
        (interpreted.program_name, interpreted.exit_code,
         interpreted.halt_reason, interpreted.final_int_regs,
         interpreted.instret)
    for i, inst in enumerate(interpreted):
        view = columnar.materialize_one(i)
        assert [getattr(view, f) for f in DynInst.__slots__] == \
            [getattr(inst, f) for f in DynInst.__slots__], i


def test_from_dynamic_keeps_hand_built_instructions_apart():
    """Two instructions at one pc but with different static fields."""
    a = DynInst(0, 0x1000, InstrClass.ALU, 5, (1,), 1, 0x1004, "addi")
    b = DynInst(1, 0x1004, InstrClass.JUMP, -1, (), 1, 0x1000, "j",
                taken=True)
    c = DynInst(2, 0x1000, InstrClass.MUL, 6, (5,), 3, 0x1004, "mul",
                csr_write=7)
    trace = DynamicTrace([a, b, c], program_name="hand")
    columnar = ColumnarTrace.from_dynamic(trace)
    assert len(columnar.static_ops) == 3
    assert columnar.csr_writes == {2: 7}
    assert columnar.materialize_one(2).cls is InstrClass.MUL
    assert columnar.materialize_one(1).taken is True
