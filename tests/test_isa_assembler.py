"""Unit tests for the assembler: parsing, directives, pseudos, resolution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import (AssemblerError, DEFAULT_DATA_BASE, DEFAULT_TEXT_BASE,
                       assemble, execute)


def asm(body: str):
    return assemble(body, name="test")


def test_simple_program_places_instructions():
    program = asm("""
    .text
    _start:
        addi a0, zero, 5
        add a1, a0, a0
    """)
    assert len(program) == 2
    assert program.instructions[0].addr == DEFAULT_TEXT_BASE
    assert program.instructions[1].addr == DEFAULT_TEXT_BASE + 4


def test_label_resolution_forward_and_backward():
    program = asm("""
    top:
        beq zero, zero, bottom
        addi a0, a0, 1
    bottom:
        jal zero, top
    """)
    beq = program.instructions[0]
    jal = program.instructions[2]
    assert beq.imm == program.symbols["bottom"]
    assert jal.imm == program.symbols["top"] == DEFAULT_TEXT_BASE


def test_duplicate_label_rejected():
    with pytest.raises(AssemblerError):
        asm("a:\n addi a0, a0, 1\na:\n addi a0, a0, 1")


def test_unknown_instruction_rejected():
    with pytest.raises(AssemblerError):
        asm("frobnicate a0, a1")


def test_undefined_symbol_rejected():
    with pytest.raises(AssemblerError):
        asm("j nowhere")


def test_data_directives_lay_out_little_endian():
    program = asm("""
    .data
    val: .dword 0x0102030405060708
    b:   .byte 0xAA
    h:   .half 0x1234
    w:   .word 0xDEADBEEF
    """)
    assert program.data == ((DEFAULT_DATA_BASE,
                             bytes.fromhex("0807060504030201") + b"\xaa"
                             + b"\x34\x12" + b"\xef\xbe\xad\xde"),)


def test_space_and_align():
    program = asm("""
    .data
    a: .byte 1
    .align 3
    b: .dword 2
    """)
    assert program.symbols["b"] % 8 == 0


def test_asciz_terminates():
    program = asm('.data\nmsg: .asciz "hi"')
    assert program.data == ((program.symbols["msg"], b"hi\0"),)


def test_align_gap_starts_a_new_segment():
    program = asm("""
    .data
    a: .byte 1
    .align 3
    b: .dword 2
    c: .ascii "ok"
    """)
    base = DEFAULT_DATA_BASE
    assert program.symbols["b"] == base + 8
    # The 7-byte gap is never written; the runs on each side are whole.
    assert program.data == ((base, b"\x01"),
                            (base + 8, (2).to_bytes(8, "little") + b"ok"))


def test_space_writes_zeros_inside_the_segment():
    program = asm(".data\na: .byte 1\n.space 3\nb: .byte 2")
    assert program.data == ((DEFAULT_DATA_BASE, b"\x01\0\0\0\x02"),)
    assert program.symbols["b"] == DEFAULT_DATA_BASE + 4


def test_negative_and_wide_values_wrap_to_their_width():
    program = asm(".data\n.word -1, -2\n.byte 300, -128\n.half 0x12345")
    assert program.data == ((DEFAULT_DATA_BASE,
                             b"\xff\xff\xff\xff\xfe\xff\xff\xff"
                             b"\x2c\x80" b"\x45\x23"),)


def test_dword_of_a_label_plus_offset():
    program = asm("""
    .equ K, 7
    .data
    a: .dword 1, 2
    p: .dword a+8, K, 0x10
    """)
    base = DEFAULT_DATA_BASE
    (segment,) = program.data
    assert segment[0] == base
    assert segment[1][16:] == b"".join(
        value.to_bytes(8, "little") for value in (base + 8, 7, 0x10))


def test_bad_token_deep_in_a_long_list_keeps_its_line():
    tokens = ["1"] * 500 + ["nowhere"] + ["2"] * 20
    source = ".data\nnop_label:\n.dword " + ", ".join(tokens)
    with pytest.raises(AssemblerError) as info:
        asm(source)
    assert "line 3" in str(info.value)
    assert "forward data reference to 'nowhere'" in str(info.value)
    with pytest.raises(AssemblerError, match="bad symbol offset") as info:
        asm(".data\n.byte 1\n\n.word 5, 6, a+zz, 7")
    assert "line 4" in str(info.value)


def test_equ_constants_usable_in_immediates():
    program = asm("""
    .equ N, 42
    addi a0, zero, N
    """)
    assert program.instructions[0].imm == 42


def test_comments_are_stripped():
    program = asm("""
    addi a0, zero, 1   # hash comment
    addi a0, zero, 2   // slash comment
    addi a0, zero, 3   ; semicolon comment
    """)
    assert len(program) == 3


def test_pseudo_expansions():
    program = asm("""
    nop
    mv a0, a1
    not a2, a3
    neg a4, a5
    seqz a6, a7
    beqz t0, out
    bgt t1, t2, out
    j out
    ret
    out:
        nop
    """)
    mnemonics = [inst.mnemonic for inst in program.instructions]
    assert mnemonics[0] == "addi"          # nop
    assert mnemonics[1] == "addi"          # mv
    assert mnemonics[2] == "xori"          # not
    assert mnemonics[3] == "sub"           # neg
    assert mnemonics[4] == "sltiu"         # seqz
    assert mnemonics[5] == "beq"           # beqz
    assert mnemonics[6] == "blt"           # bgt swaps operands
    assert program.instructions[6].rs1 == program.instructions[6].rs1


def test_bgt_swaps_operands():
    program = asm("bgt t1, t2, done\ndone: nop")
    blt = program.instructions[0]
    # bgt a,b -> blt b,a
    assert blt.mnemonic == "blt"
    assert blt.rs1 == 7   # t2
    assert blt.rs2 == 6   # t1


def test_li_small_single_addi():
    program = asm("li a0, 100")
    assert len(program) == 1
    assert program.instructions[0].mnemonic == "addi"


def test_li_large_expands():
    program = asm("li a0, 0x123456789")
    assert len(program) > 1


def test_la_uses_pcrel_pair():
    program = asm("""
    .data
    thing: .dword 7
    .text
    la a0, thing
    """)
    assert program.instructions[0].mnemonic == "auipc"
    assert program.instructions[1].mnemonic == "addi"


def test_la_resolves_to_symbol_address():
    program = asm("""
    .data
    thing: .dword 77
    .text
    _start:
        la a0, thing
        ld a1, 0(a0)
        mv a0, a1
        li a7, 93
        ecall
    """)
    trace = execute(program)
    assert trace.exit_code == 77


def test_symbol_plus_offset():
    program = asm("""
    .data
    arr: .dword 1, 2, 3
    .text
    _start:
        la a0, arr+16
        ld a1, 0(a0)
        mv a0, a1
        li a7, 93
        ecall
    """)
    assert execute(program).exit_code == 3


def test_csr_names_accepted():
    program = asm("csrr t0, mcycle\ncsrw mhpmevent3, t1")
    assert program.instructions[0].mnemonic == "csrrs"
    assert program.instructions[1].mnemonic == "csrrw"


def test_entry_defaults_to_start_label():
    program = asm("""
    helper:
        ret
    _start:
        nop
    """)
    assert program.entry == program.symbols["_start"]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1))
def test_li_materializes_any_64bit_constant(value):
    program = assemble(f"""
    _start:
        li a0, {value}
        li a7, 93
        ecall
    """)
    trace = execute(program)
    assert trace.exit_code == value
