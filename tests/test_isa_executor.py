"""Unit tests for the functional executor's architectural semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import ExecutionError, assemble, execute

U64 = (1 << 64) - 1


def run_exit(body: str) -> int:
    """Assemble a fragment that leaves the result in a0 and exits."""
    program = assemble(f"""
    _start:
    {body}
        li a7, 93
        ecall
    """)
    return execute(program).exit_code


def test_basic_arithmetic():
    assert run_exit("li a0, 2\n li t0, 3\n add a0, a0, t0") == 5
    assert run_exit("li a0, 2\n li t0, 3\n sub a0, a0, t0") == -1
    assert run_exit("li a0, 6\n li t0, 3\n mul a0, a0, t0") == 18


def test_logic_ops():
    assert run_exit("li a0, 0b1100\n andi a0, a0, 0b1010") == 0b1000
    assert run_exit("li a0, 0b1100\n ori a0, a0, 0b0011") == 0b1111
    assert run_exit("li a0, 0b1100\n xori a0, a0, 0b1010") == 0b0110


def test_shifts_signed_and_unsigned():
    assert run_exit("li a0, -8\n srai a0, a0, 1") == -4
    assert run_exit("li a0, 1\n slli a0, a0, 10") == 1024
    # srli of a negative value is a logical shift of the 64-bit pattern
    assert run_exit("li a0, -1\n srli a0, a0, 60") == 15


def test_comparisons():
    assert run_exit("li t0, -1\n li t1, 1\n slt a0, t0, t1") == 1
    assert run_exit("li t0, -1\n li t1, 1\n sltu a0, t0, t1") == 0


def test_word_ops_sign_extend():
    assert run_exit("li a0, 0x7FFFFFFF\n addiw a0, a0, 1") == -(1 << 31)
    assert run_exit("li a0, 0xFFFFFFFF\n sext.w a0, a0") == -1


def test_division_semantics():
    assert run_exit("li t0, 7\n li t1, -2\n div a0, t0, t1") == -3
    assert run_exit("li t0, 7\n li t1, -2\n rem a0, t0, t1") == 1
    assert run_exit("li t0, 7\n li t1, 0\n div a0, t0, t1") == -1
    assert run_exit("li t0, 7\n li t1, 0\n remu a0, t0, t1") == 7


def test_x0_writes_are_discarded():
    assert run_exit("li a0, 0\n addi zero, zero, 55\n add a0, a0, zero") == 0


def test_memory_round_trip_widths():
    body = """
        la t0, buf
        li t1, -2
        sd t1, 0(t0)
        lw a0, 0(t0)
    """
    program = assemble(f"""
    .data
    buf: .space 16
    .text
    _start:
    {body}
        li a7, 93
        ecall
    """)
    assert execute(program).exit_code == -2  # sign-extended lw


def test_unsigned_loads_zero_extend():
    program = assemble("""
    .data
    buf: .space 8
    .text
    _start:
        la t0, buf
        li t1, -1
        sb t1, 0(t0)
        lbu a0, 0(t0)
        li a7, 93
        ecall
    """)
    assert execute(program).exit_code == 255


def test_branches_direct_control_flow():
    assert run_exit("""
        li a0, 0
        li t0, 5
        li t1, 0
    loop:
        addi a0, a0, 2
        addi t1, t1, 1
        blt t1, t0, loop
    """) == 10


def test_jal_links_return_address():
    program = assemble("""
    _start:
        call fn
        li a7, 93
        ecall
    fn:
        li a0, 9
        ret
    """)
    assert execute(program).exit_code == 9


def test_jalr_indirect_target():
    program = assemble("""
    _start:
        la t0, fn
        jalr ra, t0, 0
        li a7, 93
        ecall
    fn:
        li a0, 31
        ret
    """)
    assert execute(program).exit_code == 31


def test_fp_basic_arithmetic():
    assert run_exit("""
        li t0, 3
        fcvt.d.l ft0, t0
        li t1, 4
        fcvt.d.l ft1, t1
        fmul.d ft2, ft0, ft1
        fadd.d ft2, ft2, ft0
        fcvt.l.d a0, ft2
    """) == 15


def test_fp_compare_writes_int():
    assert run_exit("""
        li t0, 2
        fcvt.d.l ft0, t0
        li t1, 5
        fcvt.d.l ft1, t1
        flt.d a0, ft0, ft1
    """) == 1


def test_fp_load_store():
    program = assemble("""
    .data
    buf: .space 8
    .text
    _start:
        li t0, 42
        fcvt.d.l ft0, t0
        la t1, buf
        fsd ft0, 0(t1)
        fld ft1, 0(t1)
        fcvt.l.d a0, ft1
        li a7, 93
        ecall
    """)
    assert execute(program).exit_code == 42


def test_csr_write_then_read():
    assert run_exit("""
        li t0, 0x123
        csrw mhpmevent3, t0
        csrr a0, mhpmevent3
    """) == 0x123


def test_csr_set_and_clear_bits():
    assert run_exit("""
        li t0, 0b1100
        csrw mhpmevent3, t0
        li t1, 0b0110
        csrs mhpmevent3, t1
        csrr a0, mhpmevent3
    """) == 0b1110


def test_amo_add_returns_old_value():
    program = assemble("""
    .data
    cnt: .dword 10
    .text
    _start:
        la t0, cnt
        li t1, 5
        amoadd.d a0, t1, (t0)
        ld t2, 0(t0)
        add a0, a0, t2
        li a7, 93
        ecall
    """)
    assert execute(program).exit_code == 10 + 15


def test_exit_code_comes_from_a0():
    assert run_exit("li a0, 1234") == 1234


def test_halt_reason_ecall():
    program = assemble("_start:\n li a7, 93\n ecall")
    assert execute(program).halt_reason == "ecall"


def test_fell_off_text_halt():
    program = assemble("_start:\n addi a0, a0, 1")
    trace = execute(program)
    assert trace.halt_reason == "fell-off-text"


def test_instruction_budget_enforced():
    program = assemble("""
    _start:
    loop:
        j loop
    """)
    with pytest.raises(ExecutionError):
        execute(program, max_instructions=1000)


def test_dyn_trace_records_memory_addresses():
    program = assemble("""
    .data
    v: .dword 5
    .text
    _start:
        la t0, v
        ld a0, 0(t0)
        li a7, 93
        ecall
    """)
    trace = execute(program)
    loads = [i for i in trace if i.is_load]
    assert len(loads) == 1
    assert loads[0].mem_addr == program.symbols["v"]
    assert loads[0].mem_width == 8


def test_dyn_trace_branch_outcomes():
    program = assemble("""
    _start:
        li t0, 1
        beqz t0, skip      # not taken
        beq zero, zero, skip  # taken
        addi a0, a0, 1
    skip:
        li a7, 93
        ecall
    """)
    trace = execute(program)
    branches = [i for i in trace if i.is_branch]
    assert [b.taken for b in branches] == [False, True]
    assert branches[1].next_pc == program.symbols["skip"]


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1),
       st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1))
def test_add_sub_match_python_semantics(a, b):
    assert run_exit(f"li t0, {a}\n li t1, {b}\n add a0, t0, t1") == a + b
    assert run_exit(f"li t0, {a}\n li t1, {b}\n sub a0, t0, t1") == a - b


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1),
       st.integers(min_value=1, max_value=2 ** 31 - 1))
def test_div_rem_invariant(a, b):
    q = run_exit(f"li t0, {a}\n li t1, {b}\n div a0, t0, t1")
    r = run_exit(f"li t0, {a}\n li t1, {b}\n rem a0, t0, t1")
    assert q * b + r == a
