"""Functional executor: closure-compiled RV64-subset execution.

:func:`execute` runs a :class:`~repro.isa.program.Program` and returns
its committed-path :class:`~repro.isa.columnar.ColumnarTrace`, the input
the Rocket and BOOM timing models replay.  It implements the
architectural semantics of the RV64 subset (64-bit two's-complement
integer arithmetic, little-endian memory, IEEE-754 doubles for the FP
subset) without any timing.

:func:`compile_program` decodes each *static* instruction once into a
specialized zero-argument closure with its operand indices,
immediates, memory width, semantic handler, and control-flow successors
pre-bound (classic threaded-code interpretation).  Executing the program
is then a tight ``idx = ops[idx]()`` loop, and the closures append
directly into the struct-of-arrays columns of the trace.

Two layers keep compilation reusable and runs independent:

- ``compile_program`` produces per-instruction *builders* (validated
  once per program — every mnemonic, operand shape, and semantic handler
  is checked at compile time, so bad programs fail at load, not
  mid-run);
- each run binds the builders to fresh architectural state (registers,
  memory, CSRs) and a fresh output trace, yielding the actual op
  closures.

Program exit follows the common bare-metal convention: ``ecall`` with
``a7 == 93`` terminates with exit code ``a0``; ``ebreak`` also halts.
The ``trace/<workload>`` entries of ``tests/golden_digests.json`` pin
the trace of every registry workload.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Tuple

from .columnar import ColumnarTrace, StaticOp
from .dyn_trace import FP_REG_BASE, NO_REG
from .errors import ExecutionError
from .instructions import (InstrClass, Instruction, MEM_WIDTHS, OPCODES,
                           OpSpec, UNSIGNED_LOADS)
from .memory import SparseMemory
from .program import INSTR_BYTES, Program

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1

SYSCALL_EXIT = 93

#: Default safety valve on dynamic instruction count.
DEFAULT_MAX_INSTRUCTIONS = 4_000_000

#: Halt sentinels returned by op closures (normal returns are >= 0;
#: any index >= len(program) means "fell off the text section").
_HALT_ECALL = -2
_HALT_EBREAK = -3

#: AMO mnemonics that count as loads / stores in the DynInst flags.
_AMO_LOADS = frozenset({"lr.d", "amoadd.d", "amoswap.d"})
_AMO_STORES = frozenset({"sc.d", "amoadd.d", "amoswap.d"})


def _sext(value: int, bits: int) -> int:
    """Sign-extend the low *bits* of *value* to a Python int."""
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value


def _to_signed64(value: int) -> int:
    return _sext(value, 64)


def _f2bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _bits2f(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & _U64))[0]


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        return -1
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _srem(a: int, b: int) -> int:
    if b == 0:
        return a
    return a - _sdiv(a, b) * b


# ----------------------------------------------------------------------
# Semantic tables: one pre-bindable value function per mnemonic.
# Signature (a, b, imm, pc) with a/b the unsigned rs1/rs2 values; the
# generated op masks the result to 64 bits before writing ``rd``.

_ALU_EVAL: Dict[str, Callable[[int, int, int, int], int]] = {
    "add": lambda a, b, imm, pc: a + b,
    "sub": lambda a, b, imm, pc: a - b,
    "and": lambda a, b, imm, pc: a & b,
    "or": lambda a, b, imm, pc: a | b,
    "xor": lambda a, b, imm, pc: a ^ b,
    "sll": lambda a, b, imm, pc: a << (b & 63),
    "srl": lambda a, b, imm, pc: a >> (b & 63),
    "sra": lambda a, b, imm, pc: _to_signed64(a) >> (b & 63),
    "slt": lambda a, b, imm, pc: int(_to_signed64(a) < _to_signed64(b)),
    "sltu": lambda a, b, imm, pc: int(a < b),
    "addi": lambda a, b, imm, pc: a + imm,
    "andi": lambda a, b, imm, pc: a & (imm & _U64),
    "ori": lambda a, b, imm, pc: a | (imm & _U64),
    "xori": lambda a, b, imm, pc: a ^ (imm & _U64),
    "slti": lambda a, b, imm, pc: int(_to_signed64(a) < imm),
    "sltiu": lambda a, b, imm, pc: int(a < (imm & _U64)),
    "slli": lambda a, b, imm, pc: a << (imm & 63),
    "srli": lambda a, b, imm, pc: a >> (imm & 63),
    "srai": lambda a, b, imm, pc: _to_signed64(a) >> (imm & 63),
    "addw": lambda a, b, imm, pc: _sext(a + b, 32),
    "subw": lambda a, b, imm, pc: _sext(a - b, 32),
    "sllw": lambda a, b, imm, pc: _sext(a << (b & 31), 32),
    "srlw": lambda a, b, imm, pc: _sext((a & _U32) >> (b & 31), 32),
    "sraw": lambda a, b, imm, pc: _sext(_sext(a, 32) >> (b & 31), 32),
    "addiw": lambda a, b, imm, pc: _sext(a + imm, 32),
    "slliw": lambda a, b, imm, pc: _sext(a << (imm & 31), 32),
    "srliw": lambda a, b, imm, pc: _sext((a & _U32) >> (imm & 31), 32),
    "sraiw": lambda a, b, imm, pc: _sext(_sext(a, 32) >> (imm & 31), 32),
    "lui": lambda a, b, imm, pc: imm << 12,
    "auipc": lambda a, b, imm, pc: pc + (imm << 12),
}

_MUL_EVAL: Dict[str, Callable[[int, int], int]] = {
    "mul": lambda a, b: _to_signed64(a) * _to_signed64(b),
    "mulw": lambda a, b: _sext(_to_signed64(a) * _to_signed64(b), 32),
    "mulh": lambda a, b: (_to_signed64(a) * _to_signed64(b)) >> 64,
    "mulhu": lambda a, b: (a * b) >> 64,
    "mulhsu": lambda a, b: (_to_signed64(a) * b) >> 64,
}

_DIV_EVAL: Dict[str, Callable[[int, int], int]] = {
    "div": lambda a, b: _sdiv(_to_signed64(a), _to_signed64(b)),
    "divu": lambda a, b: _U64 if b == 0 else a // b,
    "rem": lambda a, b: _srem(_to_signed64(a), _to_signed64(b)),
    "remu": lambda a, b: a if b == 0 else a % b,
    "divw": lambda a, b: _sext(_sdiv(_sext(a, 32), _sext(b, 32)), 32),
    "divuw": lambda a, b: _sext(
        _U32 if b & _U32 == 0 else (a & _U32) // (b & _U32), 32),
    "remw": lambda a, b: _sext(_srem(_sext(a, 32), _sext(b, 32)), 32),
    "remuw": lambda a, b: _sext(
        a & _U32 if b & _U32 == 0 else (a & _U32) % (b & _U32), 32),
}

_BRANCH_EVAL: Dict[str, Callable[[int, int], bool]] = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _to_signed64(a) < _to_signed64(b),
    "bge": lambda a, b: _to_signed64(a) >= _to_signed64(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}


class CompileError(ExecutionError):
    """A program failed validation at :func:`compile_program` time."""


def _deps(instr: Instruction) -> Tuple[int, Tuple[int, ...]]:
    """Unified (dest, sources) register ids for dependency tracking."""
    spec = instr.spec
    dest = NO_REG
    if spec.writes_rd:
        if spec.fp_rd:
            dest = FP_REG_BASE + instr.rd
        elif instr.rd != 0:
            dest = instr.rd
    srcs: List[int] = []
    if spec.reads_rs1:
        src = FP_REG_BASE + instr.rs1 if spec.fp_rs1 else instr.rs1
        if spec.fp_rs1 or instr.rs1 != 0:
            srcs.append(src)
    if spec.reads_rs2:
        src = FP_REG_BASE + instr.rs2 if spec.fp_rs2 else instr.rs2
        if spec.fp_rs2 or instr.rs2 != 0:
            srcs.append(src)
    return dest, tuple(srcs)


def _static_op(instr: Instruction, spec: OpSpec) -> StaticOp:
    """The per-static-instruction record shared by all dynamic instances."""
    cls = spec.cls
    m = instr.mnemonic
    if cls in (InstrClass.LOAD, InstrClass.STORE):
        mem_width = MEM_WIDTHS[m]
    elif cls in (InstrClass.FP_LOAD, InstrClass.FP_STORE, InstrClass.AMO):
        mem_width = 8
    else:
        mem_width = 0
    dest, srcs = _deps(instr)
    return StaticOp(
        pc=instr.addr, cls=cls, dest=dest, srcs=srcs, latency=spec.latency,
        mnemonic=m, mem_width=mem_width,
        is_load=(cls in (InstrClass.LOAD, InstrClass.FP_LOAD)
                 or m in _AMO_LOADS),
        is_store=(cls in (InstrClass.STORE, InstrClass.FP_STORE)
                  or m in _AMO_STORES),
        is_branch=(cls == InstrClass.BRANCH),
        is_fence=(cls == InstrClass.FENCE),
        csr=instr.csr if cls == InstrClass.CSR else -1)


# ----------------------------------------------------------------------
# Per-class builders.  Each returns ``build(x, f, mem, csrs, trace) ->
# op`` where ``op()`` executes one dynamic instruction, appends its
# column entries, and returns the next static index (or a halt
# sentinel / out-of-range index).


def _compile_one(instr: Instruction, spec: OpSpec, idx: int, n: int,
                 index_map: Dict[int, int]):
    m = instr.mnemonic
    cls = spec.cls
    rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2
    imm, pc = instr.imm, instr.addr
    nxt = idx + 1
    npc = pc + INSTR_BYTES

    def bad(detail: str) -> CompileError:
        return CompileError(
            f"cannot compile pc {pc:#x}: {detail} ({m!r})")

    if cls == InstrClass.ALU:
        if m == "addi":
            def build(x, f, mem, csrs, t,
                      rs1=rs1, rd=rd, imm=imm, nxt=nxt, npc=npc, idx=idx):
                es, em, en, et = (t.sidx.append, t.mem_addr.append,
                                  t.next_pc.append, t.taken.append)

                def op():
                    if rd:
                        x[rd] = (x[rs1] + imm) & _U64
                    es(idx); em(0); en(npc); et(0)
                    return nxt
                return op
            return build
        if m == "add":
            def build(x, f, mem, csrs, t,
                      rs1=rs1, rs2=rs2, rd=rd, nxt=nxt, npc=npc, idx=idx):
                es, em, en, et = (t.sidx.append, t.mem_addr.append,
                                  t.next_pc.append, t.taken.append)

                def op():
                    if rd:
                        x[rd] = (x[rs1] + x[rs2]) & _U64
                    es(idx); em(0); en(npc); et(0)
                    return nxt
                return op
            return build
        fn = _ALU_EVAL.get(m)
        if fn is None:
            raise bad("no ALU semantic handler")

        def build(x, f, mem, csrs, t,
                  fn=fn, rs1=rs1, rs2=rs2, rd=rd, imm=imm, pc=pc,
                  nxt=nxt, npc=npc, idx=idx):
            es, em, en, et = (t.sidx.append, t.mem_addr.append,
                              t.next_pc.append, t.taken.append)

            def op():
                if rd:
                    x[rd] = fn(x[rs1], x[rs2], imm, pc) & _U64
                es(idx); em(0); en(npc); et(0)
                return nxt
            return op
        return build

    if cls in (InstrClass.MUL, InstrClass.DIV):
        fn = (_MUL_EVAL if cls == InstrClass.MUL else _DIV_EVAL).get(m)
        if fn is None:
            raise bad("no MUL/DIV semantic handler")

        def build(x, f, mem, csrs, t,
                  fn=fn, rs1=rs1, rs2=rs2, rd=rd, nxt=nxt, npc=npc, idx=idx):
            es, em, en, et = (t.sidx.append, t.mem_addr.append,
                              t.next_pc.append, t.taken.append)

            def op():
                if rd:
                    x[rd] = fn(x[rs1], x[rs2]) & _U64
                es(idx); em(0); en(npc); et(0)
                return nxt
            return op
        return build

    if cls == InstrClass.LOAD:
        width = MEM_WIDTHS[m]
        unsigned = m in UNSIGNED_LOADS

        def build(x, f, mem, csrs, t,
                  rs1=rs1, rd=rd, imm=imm, width=width, unsigned=unsigned,
                  nxt=nxt, npc=npc, idx=idx):
            es, em, en, et = (t.sidx.append, t.mem_addr.append,
                              t.next_pc.append, t.taken.append)
            read = mem.read if unsigned else mem.read_signed

            def op():
                addr = (x[rs1] + imm) & _U64
                if rd:
                    x[rd] = read(addr, width) & _U64
                else:
                    read(addr, width)
                es(idx); em(addr); en(npc); et(0)
                return nxt
            return op
        return build

    if cls == InstrClass.STORE:
        width = MEM_WIDTHS[m]

        def build(x, f, mem, csrs, t,
                  rs1=rs1, rs2=rs2, imm=imm, width=width,
                  nxt=nxt, npc=npc, idx=idx):
            es, em, en, et = (t.sidx.append, t.mem_addr.append,
                              t.next_pc.append, t.taken.append)
            write = mem.write

            def op():
                addr = (x[rs1] + imm) & _U64
                write(addr, x[rs2], width)
                es(idx); em(addr); en(npc); et(0)
                return nxt
            return op
        return build

    if cls == InstrClass.BRANCH:
        fn = _BRANCH_EVAL.get(m)
        if fn is None:
            raise bad("no branch semantic handler")
        # Branch targets are absolute byte addresses resolved by the
        # assembler; resolve them to static indices once, here.  A
        # target outside the text section ends the run (fell-off).
        t_idx = index_map.get(imm, n)

        def build(x, f, mem, csrs, t,
                  fn=fn, rs1=rs1, rs2=rs2, t_idx=t_idx, t_npc=imm,
                  nxt=nxt, npc=npc, idx=idx):
            es, em, en, et = (t.sidx.append, t.mem_addr.append,
                              t.next_pc.append, t.taken.append)

            def op():
                es(idx); em(0)
                if fn(x[rs1], x[rs2]):
                    en(t_npc); et(1)
                    return t_idx
                en(npc); et(0)
                return nxt
            return op
        return build

    if cls == InstrClass.JUMP:
        t_idx = index_map.get(imm, n)
        link = npc & _U64

        def build(x, f, mem, csrs, t,
                  rd=rd, link=link, t_idx=t_idx, t_npc=imm, idx=idx):
            es, em, en, et = (t.sidx.append, t.mem_addr.append,
                              t.next_pc.append, t.taken.append)

            def op():
                if rd:
                    x[rd] = link
                es(idx); em(0); en(t_npc); et(1)
                return t_idx
            return op
        return build

    if cls == InstrClass.JUMP_REG:
        link = npc & _U64

        def build(x, f, mem, csrs, t,
                  rs1=rs1, rd=rd, imm=imm, link=link,
                  index_map=index_map, n=n, idx=idx):
            es, em, en, et = (t.sidx.append, t.mem_addr.append,
                              t.next_pc.append, t.taken.append)
            lookup = index_map.get

            def op():
                target = (x[rs1] + imm) & ~1 & _U64
                if rd:
                    x[rd] = link
                es(idx); em(0); en(target); et(1)
                return lookup(target, n)
            return op
        return build

    if cls == InstrClass.FENCE:
        def build(x, f, mem, csrs, t, nxt=nxt, npc=npc, idx=idx):
            es, em, en, et = (t.sidx.append, t.mem_addr.append,
                              t.next_pc.append, t.taken.append)

            def op():
                es(idx); em(0); en(npc); et(0)
                return nxt
            return op
        return build

    if cls == InstrClass.SYSTEM:
        if m == "ecall":
            def build(x, f, mem, csrs, t, nxt=nxt, npc=npc, idx=idx):
                es, em, en, et = (t.sidx.append, t.mem_addr.append,
                                  t.next_pc.append, t.taken.append)

                def op():
                    es(idx); em(0); en(npc); et(0)
                    if x[17] == SYSCALL_EXIT:  # a7
                        return _HALT_ECALL
                    return nxt
                return op
            return build
        if m == "ebreak":
            def build(x, f, mem, csrs, t, npc=npc, idx=idx):
                es, em, en, et = (t.sidx.append, t.mem_addr.append,
                                  t.next_pc.append, t.taken.append)

                def op():
                    es(idx); em(0); en(npc); et(0)
                    return _HALT_EBREAK
                return op
            return build
        raise bad("no SYSTEM semantic handler")

    if cls == InstrClass.CSR:
        return _compile_csr(instr, idx, nxt, npc, bad)

    if cls in (InstrClass.FP, InstrClass.FP_DIV):
        return _compile_fp(instr, idx, nxt, npc, bad)

    if cls == InstrClass.FP_LOAD:
        def build(x, f, mem, csrs, t,
                  rs1=rs1, rd=rd, imm=imm, nxt=nxt, npc=npc, idx=idx):
            es, em, en, et = (t.sidx.append, t.mem_addr.append,
                              t.next_pc.append, t.taken.append)
            read = mem.read

            def op():
                addr = (x[rs1] + imm) & _U64
                f[rd] = _bits2f(read(addr, 8))
                es(idx); em(addr); en(npc); et(0)
                return nxt
            return op
        return build

    if cls == InstrClass.FP_STORE:
        def build(x, f, mem, csrs, t,
                  rs1=rs1, rs2=rs2, imm=imm, nxt=nxt, npc=npc, idx=idx):
            es, em, en, et = (t.sidx.append, t.mem_addr.append,
                              t.next_pc.append, t.taken.append)
            write = mem.write

            def op():
                addr = (x[rs1] + imm) & _U64
                write(addr, _f2bits(f[rs2]), 8)
                es(idx); em(addr); en(npc); et(0)
                return nxt
            return op
        return build

    if cls == InstrClass.AMO:
        return _compile_amo(instr, idx, nxt, npc, bad)

    raise bad(f"no compiler for class {cls}")


def _compile_csr(instr: Instruction, idx: int, nxt: int, npc: int, bad):
    m = instr.mnemonic
    rd, rs1, imm, ca = instr.rd, instr.rs1, instr.imm, instr.csr
    # Whether the op writes the CSR is static for csrrs/csrrc (rs1
    # register index == x0 means pure read) and csrr?i (zero imm means
    # pure read), as the Zicsr spec defines it.
    if m == "csrrw":
        def value(old, a):
            return a & _U64
        writes = True
    elif m == "csrrs":
        def value(old, a):
            return (old | a) & _U64
        writes = rs1 != 0
    elif m == "csrrc":
        def value(old, a):
            return (old & ~a) & _U64
        writes = rs1 != 0
    elif m == "csrrwi":
        def value(old, a):
            return imm & 0x1F
        writes = True
    elif m == "csrrsi":
        def value(old, a):
            return (old | (imm & 0x1F)) & _U64
        writes = bool(imm)
    elif m == "csrrci":
        def value(old, a):
            return (old & ~(imm & 0x1F)) & _U64
        writes = bool(imm)
    else:
        raise bad("no CSR semantic handler")

    def build(x, f, mem, csrs, t,
              value=value, writes=writes, rs1=rs1, rd=rd, ca=ca,
              nxt=nxt, npc=npc, idx=idx):
        s = t.sidx
        es, em, en, et = (s.append, t.mem_addr.append,
                          t.next_pc.append, t.taken.append)
        csrw = t.csr_writes
        get = csrs.get

        def op():
            old = get(ca, 0)
            if writes:
                w = value(old, x[rs1])
                csrs[ca] = w
                csrw[len(s)] = w
            if rd:
                x[rd] = old
            es(idx); em(0); en(npc); et(0)
            return nxt
        return op
    return build


def _compile_fp(instr: Instruction, idx: int, nxt: int, npc: int, bad):
    m = instr.mnemonic
    rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2

    # FP->FP arithmetic: f[rd] = fn(f[rs1], f[rs2]).
    fp_bin = {
        "fadd.d": lambda a, b: a + b,
        "fsub.d": lambda a, b: a - b,
        "fmul.d": lambda a, b: a * b,
        "fdiv.d": lambda a, b: a / b if b else float("inf"),
        "fmin.d": min,
        "fmax.d": max,
    }.get(m)
    if fp_bin is not None:
        def build(x, f, mem, csrs, t,
                  fn=fp_bin, rs1=rs1, rs2=rs2, rd=rd,
                  nxt=nxt, npc=npc, idx=idx):
            es, em, en, et = (t.sidx.append, t.mem_addr.append,
                              t.next_pc.append, t.taken.append)

            def op():
                f[rd] = fn(f[rs1], f[rs2])
                es(idx); em(0); en(npc); et(0)
                return nxt
            return op
        return build

    # FP comparisons: integer rd = fn(f[rs1], f[rs2]).
    fp_cmp = {
        "feq.d": lambda a, b: int(a == b),
        "flt.d": lambda a, b: int(a < b),
        "fle.d": lambda a, b: int(a <= b),
    }.get(m)
    if fp_cmp is not None:
        def build(x, f, mem, csrs, t,
                  fn=fp_cmp, rs1=rs1, rs2=rs2, rd=rd,
                  nxt=nxt, npc=npc, idx=idx):
            es, em, en, et = (t.sidx.append, t.mem_addr.append,
                              t.next_pc.append, t.taken.append)

            def op():
                if rd:
                    x[rd] = fn(f[rs1], f[rs2])
                es(idx); em(0); en(npc); et(0)
                return nxt
            return op
        return build

    # FP unaries and moves/converts: each has its own data flow.
    if m == "fsqrt.d":
        def build(x, f, mem, csrs, t,
                  rs1=rs1, rd=rd, nxt=nxt, npc=npc, idx=idx):
            es, em, en, et = (t.sidx.append, t.mem_addr.append,
                              t.next_pc.append, t.taken.append)

            def op():
                value = f[rs1]
                f[rd] = value ** 0.5 if value >= 0 else float("nan")
                es(idx); em(0); en(npc); et(0)
                return nxt
            return op
        return build
    if m == "fmv.d.x":
        def build(x, f, mem, csrs, t,
                  rs1=rs1, rd=rd, nxt=nxt, npc=npc, idx=idx):
            es, em, en, et = (t.sidx.append, t.mem_addr.append,
                              t.next_pc.append, t.taken.append)

            def op():
                f[rd] = _bits2f(x[rs1])
                es(idx); em(0); en(npc); et(0)
                return nxt
            return op
        return build
    if m == "fmv.x.d":
        def build(x, f, mem, csrs, t,
                  rs1=rs1, rd=rd, nxt=nxt, npc=npc, idx=idx):
            es, em, en, et = (t.sidx.append, t.mem_addr.append,
                              t.next_pc.append, t.taken.append)

            def op():
                if rd:
                    x[rd] = _f2bits(f[rs1])
                es(idx); em(0); en(npc); et(0)
                return nxt
            return op
        return build
    if m == "fcvt.d.l":
        def build(x, f, mem, csrs, t,
                  rs1=rs1, rd=rd, nxt=nxt, npc=npc, idx=idx):
            es, em, en, et = (t.sidx.append, t.mem_addr.append,
                              t.next_pc.append, t.taken.append)

            def op():
                f[rd] = float(_to_signed64(x[rs1]))
                es(idx); em(0); en(npc); et(0)
                return nxt
            return op
        return build
    if m == "fcvt.l.d":
        def build(x, f, mem, csrs, t,
                  rs1=rs1, rd=rd, nxt=nxt, npc=npc, idx=idx):
            es, em, en, et = (t.sidx.append, t.mem_addr.append,
                              t.next_pc.append, t.taken.append)

            def op():
                if rd:
                    x[rd] = int(f[rs1]) & _U64
                es(idx); em(0); en(npc); et(0)
                return nxt
            return op
        return build
    raise bad("no FP semantic handler")


def _compile_amo(instr: Instruction, idx: int, nxt: int, npc: int, bad):
    m = instr.mnemonic
    rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2
    if m not in ("amoadd.d", "amoswap.d", "lr.d", "sc.d"):
        raise bad("no AMO semantic handler")

    def build(x, f, mem, csrs, t,
              m=m, rs1=rs1, rs2=rs2, rd=rd, nxt=nxt, npc=npc, idx=idx):
        es, em, en, et = (t.sidx.append, t.mem_addr.append,
                          t.next_pc.append, t.taken.append)
        read, write = mem.read, mem.write

        if m == "amoadd.d":
            def op():
                addr = x[rs1] & _U64
                old = read(addr, 8)
                write(addr, (old + x[rs2]) & _U64, 8)
                if rd:
                    x[rd] = old
                es(idx); em(addr); en(npc); et(0)
                return nxt
        elif m == "amoswap.d":
            def op():
                addr = x[rs1] & _U64
                old = read(addr, 8)
                write(addr, x[rs2], 8)
                if rd:
                    x[rd] = old
                es(idx); em(addr); en(npc); et(0)
                return nxt
        elif m == "lr.d":
            def op():
                addr = x[rs1] & _U64
                if rd:
                    x[rd] = read(addr, 8)
                else:
                    read(addr, 8)
                es(idx); em(addr); en(npc); et(0)
                return nxt
        else:  # sc.d: always succeeds in this model
            def op():
                addr = x[rs1] & _U64
                read(addr, 8)
                write(addr, x[rs2], 8)
                if rd:
                    x[rd] = 0
                es(idx); em(addr); en(npc); et(0)
                return nxt
        return op
    return build


# ----------------------------------------------------------------------


class CompiledProgram:
    """A program pre-decoded into per-instruction op builders."""

    __slots__ = ("program", "builders", "static_ops", "entry_index")

    def __init__(self, program: Program, builders: Tuple,
                 static_ops: Tuple[StaticOp, ...], entry_index: int) -> None:
        self.program = program
        self.builders = builders
        self.static_ops = static_ops
        self.entry_index = entry_index

    def run(self, max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
            stack_top: int = 0x8800_0000) -> ColumnarTrace:
        """Execute with fresh state and return the columnar trace."""
        return CompiledExecutor(
            self, max_instructions=max_instructions,
            stack_top=stack_top).run()


def compile_program(program: Program, cache: bool = True) -> CompiledProgram:
    """Pre-decode every static instruction of *program* into a closure.

    Validation is eager: every mnemonic must have a spec in
    :data:`~repro.isa.instructions.OPCODES` *and* a semantic handler
    here, so a bad program raises :class:`CompileError` (an
    :class:`~repro.isa.errors.ExecutionError`) at load time instead of
    mid-run.  The compiled form is cached on the program object.
    """
    if cache:
        cached = getattr(program, "_compiled", None)
        if cached is not None:
            return cached
    n = len(program.instructions)
    index_map = {instr.addr: i for i, instr in enumerate(program.instructions)}
    builders: List = []
    static_ops: List[StaticOp] = []
    for idx, instr in enumerate(program.instructions):
        spec = OPCODES.get(instr.mnemonic)
        if spec is None:
            raise CompileError(
                f"cannot compile pc {instr.addr:#x}: unknown mnemonic "
                f"{instr.mnemonic!r}")
        static_ops.append(_static_op(instr, spec))
        builders.append(_compile_one(instr, spec, idx, n, index_map))
    compiled = CompiledProgram(program, tuple(builders), tuple(static_ops),
                               index_map.get(program.entry, n))
    if cache:
        program._compiled = compiled
    return compiled


class CompiledExecutor:
    """One run of a :class:`CompiledProgram` over fresh state."""

    def __init__(self, compiled: CompiledProgram,
                 max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                 stack_top: int = 0x8800_0000) -> None:
        self.compiled = compiled
        self.max_instructions = max_instructions
        program = compiled.program
        self.memory = SparseMemory(program.data)
        self.int_regs: List[int] = [0] * 32
        self.fp_regs: List[float] = [0.0] * 32
        self.csrs: Dict[int, int] = {}
        self.int_regs[2] = stack_top  # sp

    def run(self) -> ColumnarTrace:
        compiled = self.compiled
        program = compiled.program
        trace = ColumnarTrace(compiled.static_ops,
                              program_name=program.name)
        x, f = self.int_regs, self.fp_regs
        mem, csrs = self.memory, self.csrs
        ops = [build(x, f, mem, csrs, trace) for build in compiled.builders]
        n = len(ops)
        budget = self.max_instructions
        idx = compiled.entry_index
        count = 0
        while 0 <= idx < n:
            if count >= budget:
                raise ExecutionError(
                    f"instruction budget exceeded "
                    f"({budget}) in {program.name!r}")
            count += 1
            idx = ops[idx]()
        if idx == _HALT_ECALL:
            trace.halt_reason = "ecall"
            trace.exit_code = _to_signed64(x[10])  # a0
        elif idx == _HALT_EBREAK:
            trace.halt_reason = "ebreak"
        else:
            trace.halt_reason = "fell-off-text"
        trace.final_int_regs = list(x)
        trace.instret = len(trace.sidx)
        return trace


def execute(program: Program,
            max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> ColumnarTrace:
    """Run *program* functionally and return its committed-path trace."""
    return compile_program(program).run(max_instructions=max_instructions)


#: Former name of :func:`execute`, the same function object.  The
#: traced benchmark run (``perfbench/spans.py``) wraps the ``isa.exec``
#: layer by this name.
execute_compiled = execute
