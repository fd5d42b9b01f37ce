"""The functional executor against its golden traces, and load-time validation.

Every registry workload's trace must match its ``trace/<workload>``
digest in ``tests/golden_digests.json``: static ops, every column, CSR
writes, exit code, halt reason, final registers and instret.  Halts and
the instruction budget are pinned to literal expectations.
"""

import pytest

from repro.isa import (CompileError, ExecutionError, assemble,
                       compile_program, execute, unpack)
from repro.isa.instructions import OPCODES, OperandFormat, OpSpec
from repro.workloads import build_program, workload_names

from tests.make_golden_digests import digest, load_golden, trace_doc

DYN_FIELDS = (
    "index", "pc", "cls", "dest", "srcs", "latency", "next_pc",
    "mnemonic", "mem_addr", "mem_width", "is_load", "is_store",
    "is_branch", "taken", "is_fence", "csr", "csr_write",
    "is_mem", "is_control_flow",
)

GOLDEN = load_golden()
STACK_TOP = 0x8800_0000


def assert_traces_identical(expected, actual):
    assert len(expected) == len(actual)
    assert expected.exit_code == actual.exit_code
    assert expected.halt_reason == actual.halt_reason
    assert list(expected.final_int_regs) == list(actual.final_int_regs)
    assert expected.instret == actual.instret
    for a, b in zip(expected, actual):
        for field in DYN_FIELDS:
            assert getattr(a, field) == getattr(b, field), (
                f"{field} differs at index {a.index} ({a.mnemonic})")


@pytest.mark.parametrize("name", workload_names())
def test_bit_identical_across_workload_registry(name):
    assert digest(trace_doc(name)) == GOLDEN[f"trace/{name}"], name


def test_compiled_trace_metadata_matches():
    program = assemble("""
    _start:
        li a0, 7
        li a7, 93
        ecall
    """)
    trace = execute(program)
    assert trace.exit_code == 7
    assert trace.halt_reason == "ecall"
    assert trace.instret == len(trace)


def test_halt_reason_ebreak_and_fell_off_text():
    ebreak = execute(assemble("_start:\n    ebreak\n"))
    assert ebreak.halt_reason == "ebreak"
    assert (len(ebreak), ebreak.instret, ebreak.exit_code) == (1, 1, 0)
    assert ebreak[0].mnemonic == "ebreak"
    assert ebreak.final_int_regs == [0, 0, STACK_TOP] + [0] * 29

    fall = execute(assemble("_start:\n    addi a0, a0, 1\n"))
    assert fall.halt_reason == "fell-off-text"
    assert (len(fall), fall.instret, fall.exit_code) == (1, 1, 0)
    assert fall.final_int_regs[10] == 1
    assert fall[0].next_pc == fall[0].pc + 4


def test_instruction_budget_message_parity():
    program = assemble("""
    _start:
        j _start
    """, name="spin")
    with pytest.raises(ExecutionError) as raised:
        execute(program, max_instructions=100)
    assert str(raised.value) == "instruction budget exceeded (100) in 'spin'"


def test_csr_writes_are_recorded_and_survive_the_codec():
    trace = execute(assemble("""
    _start:
        li t0, 12
        csrw mhpmevent3, t0
        csrwi mcounteren, 7
        csrw mhpmcounter3, zero
        csrr t1, mhpmevent3
        li a7, 93
        ecall
    """, name="csr-writes"))
    assert trace.csr_writes == {1: 12, 2: 7, 3: 0}
    assert [inst.csr_write for inst in trace][:5] == [None, 12, 7, 0, None]
    assert trace.final_int_regs[6] == 12  # t1 read back mhpmevent3
    assert_traces_identical(trace, unpack(trace.pack()))


# ----------------------------------------------------------------------
# Load-time validation: bad programs fail at compile_program(), not
# mid-run when dispatch reaches them.


def _program_with_bad_mnemonic(mnemonic):
    program = assemble("""
    _start:
        li a0, 1
        li a7, 93
        ecall
    """, name="bad")
    # Instruction() refuses unknown mnemonics, so corrupt one in place —
    # exactly what a buggy program transform would produce.
    program.instructions[0].mnemonic = mnemonic
    return program


def test_unknown_mnemonic_fails_at_compile_time():
    program = _program_with_bad_mnemonic("bogus.op")
    with pytest.raises(CompileError, match="unknown mnemonic.*bogus.op"):
        compile_program(program, cache=False)


def test_missing_semantic_handler_fails_at_compile_time(monkeypatch):
    # A mnemonic with a spec but no semantic handler must also fail at
    # load: the dispatch tables, not just OPCODES, are validated.
    monkeypatch.setitem(
        OPCODES, "fake.alu",
        OpSpec("fake.alu", OPCODES["add"].cls, OperandFormat.R, 1,
               writes_rd=True))
    program = _program_with_bad_mnemonic("fake.alu")
    with pytest.raises(CompileError, match="no ALU semantic handler"):
        compile_program(program, cache=False)


def test_validation_is_eager_not_lazy():
    # The bad instruction sits on a never-taken path; compilation must
    # reject it anyway.
    program = assemble("""
    _start:
        j _exit
        li t0, 99
    _exit:
        li a0, 0
        li a7, 93
        ecall
    """, name="dead-code")
    program.instructions[1].mnemonic = "bogus.op"
    with pytest.raises(CompileError):
        compile_program(program, cache=False)


def test_compile_cache_reused_per_program():
    program = build_program("vvadd")
    assert compile_program(program) is compile_program(program)
