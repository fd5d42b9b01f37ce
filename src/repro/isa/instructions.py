"""Instruction set definition for the RV64IM(+FD subset) ISA model.

Every instruction the assembler accepts is described by an :class:`OpSpec`
entry in :data:`OPCODES`.  The spec records the operand format (used by the
assembler), the functional-unit class (used by the core timing models), and
whether the instruction reads/writes integer or floating-point registers
(used by dependency tracking in the executor and the cores).

The instruction classes mirror the functional units of the paper's cores
(Fig. 2): ALU, multiplier/divider, loads/stores, branches/jumps, FP, CSR
accesses, fences, atomics, and system instructions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict


class InstrClass(enum.Enum):
    """Functional-unit class of an instruction."""

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"          # direct jump (jal)
    JUMP_REG = "jump_reg"  # indirect jump (jalr)
    FP = "fp"
    FP_DIV = "fp_div"
    FP_LOAD = "fp_load"
    FP_STORE = "fp_store"
    CSR = "csr"
    FENCE = "fence"
    AMO = "amo"
    SYSTEM = "system"


class OperandFormat(enum.Enum):
    """Textual operand layout, used by the assembler's parser."""

    R = "r"            # op rd, rs1, rs2
    I = "i"            # op rd, rs1, imm
    LOAD = "load"      # op rd, imm(rs1)
    STORE = "store"    # op rs2, imm(rs1)
    BRANCH = "branch"  # op rs1, rs2, target
    U = "u"            # op rd, imm
    JAL = "jal"        # op rd, target      (or "op target" pseudo form)
    JALR = "jalr"      # op rd, rs1, imm    (or "op rs1" pseudo form)
    CSR = "csr"        # op rd, csr, rs1
    CSRI = "csri"      # op rd, csr, zimm
    NONE = "none"      # op
    FP_R = "fp_r"      # op frd, frs1, frs2
    FP_LOAD = "fp_load"    # op frd, imm(rs1)
    FP_STORE = "fp_store"  # op frs2, imm(rs1)
    FP_CMP = "fp_cmp"  # op rd, frs1, frs2
    FP_CVT_TO = "fp_cvt_to"      # op frd, rs1
    FP_CVT_FROM = "fp_cvt_from"  # op rd, frs1
    FP_UNARY = "fp_unary"        # op frd, frs1
    AMO = "amo"        # op rd, rs2, (rs1)
    LR = "lr"          # op rd, (rs1)


@dataclass(frozen=True)
class OpSpec:
    """Static description of one mnemonic."""

    mnemonic: str
    cls: InstrClass
    fmt: OperandFormat
    latency: int = 1
    writes_rd: bool = False
    reads_rs1: bool = False
    reads_rs2: bool = False
    fp_rd: bool = False
    fp_rs1: bool = False
    fp_rs2: bool = False

    @property
    def is_control_flow(self) -> bool:
        return self.cls in (InstrClass.BRANCH, InstrClass.JUMP, InstrClass.JUMP_REG)


def _r(m: str, cls: InstrClass = InstrClass.ALU, latency: int = 1) -> OpSpec:
    return OpSpec(m, cls, OperandFormat.R, latency,
                  writes_rd=True, reads_rs1=True, reads_rs2=True)


def _i(m: str, latency: int = 1) -> OpSpec:
    return OpSpec(m, InstrClass.ALU, OperandFormat.I, latency,
                  writes_rd=True, reads_rs1=True)


def _load(m: str, width: int) -> OpSpec:
    spec = OpSpec(m, InstrClass.LOAD, OperandFormat.LOAD, 2,
                  writes_rd=True, reads_rs1=True)
    _MEM_WIDTHS[m] = width
    return spec


def _store(m: str, width: int) -> OpSpec:
    spec = OpSpec(m, InstrClass.STORE, OperandFormat.STORE, 1,
                  reads_rs1=True, reads_rs2=True)
    _MEM_WIDTHS[m] = width
    return spec


def _branch(m: str) -> OpSpec:
    return OpSpec(m, InstrClass.BRANCH, OperandFormat.BRANCH, 1,
                  reads_rs1=True, reads_rs2=True)


_MEM_WIDTHS: Dict[str, int] = {}


def _build_opcodes() -> Dict[str, OpSpec]:
    specs = [
        # RV64I register-register ALU.
        _r("add"), _r("sub"), _r("sll"), _r("slt"), _r("sltu"), _r("xor"),
        _r("srl"), _r("sra"), _r("or"), _r("and"),
        _r("addw"), _r("subw"), _r("sllw"), _r("srlw"), _r("sraw"),
        # RV64I register-immediate ALU.
        _i("addi"), _i("slti"), _i("sltiu"), _i("xori"), _i("ori"),
        _i("andi"), _i("slli"), _i("srli"), _i("srai"),
        _i("addiw"), _i("slliw"), _i("srliw"), _i("sraiw"),
        # Upper-immediate.
        OpSpec("lui", InstrClass.ALU, OperandFormat.U, 1, writes_rd=True),
        OpSpec("auipc", InstrClass.ALU, OperandFormat.U, 1, writes_rd=True),
        # Loads and stores.
        _load("lb", 1), _load("lh", 2), _load("lw", 4), _load("ld", 8),
        _load("lbu", 1), _load("lhu", 2), _load("lwu", 4),
        _store("sb", 1), _store("sh", 2), _store("sw", 4), _store("sd", 8),
        # Branches.
        _branch("beq"), _branch("bne"), _branch("blt"), _branch("bge"),
        _branch("bltu"), _branch("bgeu"),
        # Jumps.
        OpSpec("jal", InstrClass.JUMP, OperandFormat.JAL, 1, writes_rd=True),
        OpSpec("jalr", InstrClass.JUMP_REG, OperandFormat.JALR, 1,
               writes_rd=True, reads_rs1=True),
        # RV64M multiply/divide.
        _r("mul", InstrClass.MUL, 3), _r("mulh", InstrClass.MUL, 3),
        _r("mulhu", InstrClass.MUL, 3), _r("mulhsu", InstrClass.MUL, 3),
        _r("mulw", InstrClass.MUL, 3),
        _r("div", InstrClass.DIV, 16), _r("divu", InstrClass.DIV, 16),
        _r("rem", InstrClass.DIV, 16), _r("remu", InstrClass.DIV, 16),
        _r("divw", InstrClass.DIV, 12), _r("divuw", InstrClass.DIV, 12),
        _r("remw", InstrClass.DIV, 12), _r("remuw", InstrClass.DIV, 12),
        # Fences: fence drains the pipeline, fence.i additionally flushes
        # the frontend (both are "intended flushes" in the TMA model).
        OpSpec("fence", InstrClass.FENCE, OperandFormat.NONE, 1),
        OpSpec("fence.i", InstrClass.FENCE, OperandFormat.NONE, 1),
        # System.
        OpSpec("ecall", InstrClass.SYSTEM, OperandFormat.NONE, 1),
        OpSpec("ebreak", InstrClass.SYSTEM, OperandFormat.NONE, 1),
        # Zicsr.
        OpSpec("csrrw", InstrClass.CSR, OperandFormat.CSR, 1,
               writes_rd=True, reads_rs1=True),
        OpSpec("csrrs", InstrClass.CSR, OperandFormat.CSR, 1,
               writes_rd=True, reads_rs1=True),
        OpSpec("csrrc", InstrClass.CSR, OperandFormat.CSR, 1,
               writes_rd=True, reads_rs1=True),
        OpSpec("csrrwi", InstrClass.CSR, OperandFormat.CSRI, 1, writes_rd=True),
        OpSpec("csrrsi", InstrClass.CSR, OperandFormat.CSRI, 1, writes_rd=True),
        OpSpec("csrrci", InstrClass.CSR, OperandFormat.CSRI, 1, writes_rd=True),
        # Double-precision FP subset (enough for FP-queue pressure studies).
        OpSpec("fld", InstrClass.FP_LOAD, OperandFormat.FP_LOAD, 2,
               writes_rd=True, reads_rs1=True, fp_rd=True),
        OpSpec("fsd", InstrClass.FP_STORE, OperandFormat.FP_STORE, 1,
               reads_rs1=True, reads_rs2=True, fp_rs2=True),
        OpSpec("fadd.d", InstrClass.FP, OperandFormat.FP_R, 4,
               writes_rd=True, reads_rs1=True, reads_rs2=True,
               fp_rd=True, fp_rs1=True, fp_rs2=True),
        OpSpec("fsub.d", InstrClass.FP, OperandFormat.FP_R, 4,
               writes_rd=True, reads_rs1=True, reads_rs2=True,
               fp_rd=True, fp_rs1=True, fp_rs2=True),
        OpSpec("fmul.d", InstrClass.FP, OperandFormat.FP_R, 4,
               writes_rd=True, reads_rs1=True, reads_rs2=True,
               fp_rd=True, fp_rs1=True, fp_rs2=True),
        OpSpec("fdiv.d", InstrClass.FP_DIV, OperandFormat.FP_R, 12,
               writes_rd=True, reads_rs1=True, reads_rs2=True,
               fp_rd=True, fp_rs1=True, fp_rs2=True),
        OpSpec("fmin.d", InstrClass.FP, OperandFormat.FP_R, 2,
               writes_rd=True, reads_rs1=True, reads_rs2=True,
               fp_rd=True, fp_rs1=True, fp_rs2=True),
        OpSpec("fmax.d", InstrClass.FP, OperandFormat.FP_R, 2,
               writes_rd=True, reads_rs1=True, reads_rs2=True,
               fp_rd=True, fp_rs1=True, fp_rs2=True),
        OpSpec("fsqrt.d", InstrClass.FP_DIV, OperandFormat.FP_UNARY, 14,
               writes_rd=True, reads_rs1=True, fp_rd=True, fp_rs1=True),
        OpSpec("fmv.d.x", InstrClass.FP, OperandFormat.FP_CVT_TO, 1,
               writes_rd=True, reads_rs1=True, fp_rd=True),
        OpSpec("fmv.x.d", InstrClass.FP, OperandFormat.FP_CVT_FROM, 1,
               writes_rd=True, reads_rs1=True, fp_rs1=True),
        OpSpec("fcvt.d.l", InstrClass.FP, OperandFormat.FP_CVT_TO, 3,
               writes_rd=True, reads_rs1=True, fp_rd=True),
        OpSpec("fcvt.l.d", InstrClass.FP, OperandFormat.FP_CVT_FROM, 3,
               writes_rd=True, reads_rs1=True, fp_rs1=True),
        OpSpec("feq.d", InstrClass.FP, OperandFormat.FP_CMP, 2,
               writes_rd=True, reads_rs1=True, reads_rs2=True,
               fp_rs1=True, fp_rs2=True),
        OpSpec("flt.d", InstrClass.FP, OperandFormat.FP_CMP, 2,
               writes_rd=True, reads_rs1=True, reads_rs2=True,
               fp_rs1=True, fp_rs2=True),
        OpSpec("fle.d", InstrClass.FP, OperandFormat.FP_CMP, 2,
               writes_rd=True, reads_rs1=True, reads_rs2=True,
               fp_rs1=True, fp_rs2=True),
        # RV64A subset.
        OpSpec("amoadd.d", InstrClass.AMO, OperandFormat.AMO, 4,
               writes_rd=True, reads_rs1=True, reads_rs2=True),
        OpSpec("amoswap.d", InstrClass.AMO, OperandFormat.AMO, 4,
               writes_rd=True, reads_rs1=True, reads_rs2=True),
        OpSpec("lr.d", InstrClass.AMO, OperandFormat.LR, 2,
               writes_rd=True, reads_rs1=True),
        OpSpec("sc.d", InstrClass.AMO, OperandFormat.AMO, 2,
               writes_rd=True, reads_rs1=True, reads_rs2=True),
    ]
    _MEM_WIDTHS["fld"] = 8
    _MEM_WIDTHS["fsd"] = 8
    for m in ("amoadd.d", "amoswap.d", "lr.d", "sc.d"):
        _MEM_WIDTHS[m] = 8
    return {spec.mnemonic: spec for spec in specs}


#: Every mnemonic the assembler accepts, mapped to its static spec.
OPCODES: Dict[str, OpSpec] = _build_opcodes()

#: Memory access width in bytes for each memory mnemonic.
MEM_WIDTHS: Dict[str, int] = dict(_MEM_WIDTHS)

#: Loads sign-extend unless listed here.
UNSIGNED_LOADS = frozenset({"lbu", "lhu", "lwu"})


@dataclass
class Instruction:
    """One decoded static instruction.

    ``rd``/``rs1``/``rs2`` are register indices into the integer or FP
    register file depending on the :class:`OpSpec` flags.  ``imm`` holds the
    immediate (branch/jump offsets are resolved to absolute byte targets by
    the assembler and stored in ``imm``).  ``addr`` is the byte address of
    the instruction once placed in a program.
    """

    __slots__ = ("mnemonic", "rd", "rs1", "rs2", "imm", "csr", "addr",
                 "source_line")

    mnemonic: str
    rd: int
    rs1: int
    rs2: int
    imm: int
    csr: int
    addr: int
    source_line: int

    def __init__(self, mnemonic: str, rd: int = 0, rs1: int = 0, rs2: int = 0,
                 imm: int = 0, csr: int = 0, addr: int = 0,
                 source_line: int = -1) -> None:
        if mnemonic not in OPCODES:
            raise ValueError(f"unknown mnemonic: {mnemonic!r}")
        self.mnemonic = mnemonic
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.csr = csr
        self.addr = addr
        self.source_line = source_line

    @property
    def spec(self) -> OpSpec:
        return OPCODES[self.mnemonic]

    @property
    def cls(self) -> InstrClass:
        return OPCODES[self.mnemonic].cls

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Instruction({self.mnemonic!r}, rd={self.rd}, rs1={self.rs1},"
                f" rs2={self.rs2}, imm={self.imm}, addr={self.addr:#x})")
