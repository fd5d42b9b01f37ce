"""Two-pass assembler for the RV64 subset.

Supports the usual bare-metal assembly shape the workload suite is written
in: ``.text``/``.data`` sections, labels, data directives, a practical set
of pseudo-instructions (``li``, ``la``, ``mv``, ``call``, ``ret``,
``beqz``…), and symbolic branch/jump targets.

Pass 1 expands pseudo-instructions into proto-instructions (operands may
still be unresolved symbols) and lays out the data section.  Pass 2
resolves every symbol to its byte address and materializes
:class:`~repro.isa.instructions.Instruction` objects inside a
:class:`~repro.isa.program.Program`.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .csrs import CSR_ADDRS
from .errors import AssemblerError
from .instructions import OPCODES, Instruction, OperandFormat
from .program import DEFAULT_DATA_BASE, DEFAULT_TEXT_BASE, INSTR_BYTES, Program
from .registers import parse_fp_reg, parse_int_reg

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):(.*)$")
_INT_RE = re.compile(r"^[+-]?(0[xX][0-9a-fA-F]+|0[bB][01]+|\d+)$")

_WIDTHS = {".byte": 1, ".half": 2, ".word": 4, ".dword": 8, ".quad": 8,
           ".2byte": 2, ".4byte": 4, ".8byte": 8}
_DATA_DIRECTIVES = set(_WIDTHS) | {".space", ".zero", ".skip", ".ascii",
                                   ".asciz", ".string"}
#: ``struct`` code of an unsigned little-endian item of each width.
_PACK_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

#: The data image under construction: ``(base, bytearray)`` runs.
Segments = List[Tuple[int, bytearray]]


@dataclass
class _Symbol:
    """Unresolved symbol reference with an optional constant offset."""

    name: str
    offset: int = 0


Operand = Union[int, _Symbol]


@dataclass
class _Proto:
    """A proto-instruction: mnemonic + operands, target may be symbolic."""

    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: Operand = 0
    csr: int = 0
    line: int = -1
    # Relocation kind for symbolic imm: "abs", "branch", "jal",
    # "pcrel_hi" or "pcrel_lo" (for la's auipc+addi pair).
    reloc: str = "abs"


class Assembler:
    """Assemble RV64-subset source text into a :class:`Program`."""

    def __init__(self, text_base: int = DEFAULT_TEXT_BASE,
                 data_base: int = DEFAULT_DATA_BASE) -> None:
        self.text_base = text_base
        self.data_base = data_base

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def assemble(self, source: str, name: str = "program") -> Program:
        """Assemble *source* and return the placed :class:`Program`."""
        protos: List[_Proto] = []
        segments: Segments = []
        symbols: Dict[str, int] = {}
        equates: Dict[str, int] = {}
        # label -> ("text", proto_index) or resolved data address
        pending_text_labels: Dict[str, int] = {}

        section = "text"
        data_cursor = self.data_base

        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = self._strip_comment(raw).strip()
            while line:
                match = _LABEL_RE.match(line)
                if match and not self._looks_like_operand_colon(line):
                    label, line = match.group(1), match.group(2).strip()
                    if label in symbols or label in pending_text_labels:
                        raise AssemblerError(f"duplicate label {label!r}", lineno)
                    if section == "text":
                        pending_text_labels[label] = len(protos)
                    else:
                        symbols[label] = data_cursor
                    continue
                break
            if not line:
                continue

            if line.startswith("."):
                section, data_cursor = self._directive(
                    line, lineno, section, data_cursor, segments, symbols,
                    equates)
                continue

            if section != "text":
                raise AssemblerError(
                    f"instruction outside .text section: {line!r}", lineno)
            protos.extend(self._parse_instruction(line, lineno, equates))

        for label, proto_index in pending_text_labels.items():
            symbols[label] = self.text_base + proto_index * INSTR_BYTES

        instructions = self._resolve(protos, symbols)
        entry = symbols.get("_start", self.text_base)
        data = tuple((base, bytes(run)) for base, run in segments)
        return Program(instructions, text_base=self.text_base,
                       data=data, symbols=symbols, entry=entry, name=name)

    # ------------------------------------------------------------------
    # parsing helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _strip_comment(line: str) -> str:
        for marker in ("#", "//", ";"):
            pos = line.find(marker)
            if pos >= 0:
                line = line[:pos]
        return line

    @staticmethod
    def _looks_like_operand_colon(line: str) -> bool:
        # Guards against treating "1:" inside operands as a label; our
        # subset has no numeric local labels, so any match is a label.
        return False

    def _parse_int(self, token: str, lineno: int,
                   equates: Dict[str, int]) -> int:
        token = token.strip()
        if token in equates:
            return equates[token]
        if not _INT_RE.match(token):
            raise AssemblerError(f"expected integer, got {token!r}", lineno)
        return int(token, 0)

    def _parse_operand_value(self, token: str, lineno: int,
                             equates: Dict[str, int]) -> Operand:
        """Integer literal, equate, or symbol[+offset]."""
        token = token.strip()
        if _INT_RE.match(token):
            return int(token, 0)
        if token in equates:
            return equates[token]
        plus = token.rfind("+")
        minus = token.rfind("-")
        cut = max(plus, minus)
        if cut > 0:
            base, rest = token[:cut].strip(), token[cut:].strip()
            try:
                offset = int(rest, 0)
            except ValueError:
                raise AssemblerError(f"bad symbol offset in {token!r}", lineno)
            return _Symbol(base, offset)
        return _Symbol(token)

    # ------------------------------------------------------------------
    # directives
    # ------------------------------------------------------------------

    def _directive(self, line: str, lineno: int, section: str,
                   data_cursor: int, segments: Segments,
                   symbols: Dict[str, int],
                   equates: Dict[str, int]) -> Tuple[str, int]:
        parts = line.split(None, 1)
        directive = parts[0]
        rest = parts[1] if len(parts) > 1 else ""

        if directive in (".text", ".section.text"):
            return "text", data_cursor
        if directive == ".data":
            return "data", data_cursor
        if directive == ".section":
            target = rest.split(",")[0].strip()
            if target.startswith(".text"):
                return "text", data_cursor
            if target.startswith((".data", ".bss", ".rodata")):
                return "data", data_cursor
            raise AssemblerError(f"unknown section {target!r}", lineno)
        if directive in (".global", ".globl", ".local", ".type", ".size",
                         ".file", ".option", ".attribute", ".p2align"):
            return section, data_cursor
        if directive == ".equ" or directive == ".set":
            name, _, value = rest.partition(",")
            if not value:
                raise AssemblerError(".equ needs NAME, VALUE", lineno)
            equates[name.strip()] = self._parse_int(value, lineno, equates)
            return section, data_cursor
        if directive == ".align":
            k = self._parse_int(rest, lineno, equates)
            size = 1 << k
            if section == "data":
                data_cursor = (data_cursor + size - 1) & ~(size - 1)
            return section, data_cursor

        if directive not in _DATA_DIRECTIVES:
            raise AssemblerError(f"unknown directive {directive!r}", lineno)
        if section != "data":
            raise AssemblerError(
                f"data directive {directive!r} outside .data", lineno)
        if directive in _WIDTHS:
            width = _WIDTHS[directive]
            mask = (1 << (8 * width)) - 1
            tokens = self._split_commas(rest)
            if all(map(_INT_RE.match, tokens)):
                payload = struct.pack(
                    f"<{len(tokens)}{_PACK_CODES[width]}",
                    *[int(token, 0) & mask for token in tokens])
            else:
                payload = b"".join(
                    (self._data_value(token, lineno, symbols, equates)
                     & mask).to_bytes(width, "little")
                    for token in tokens)
            return section, _place(segments, data_cursor, payload)
        if directive in (".space", ".zero", ".skip"):
            count = self._parse_int(rest.split(",")[0], lineno, equates)
            _place(segments, data_cursor, bytes(max(count, 0)))
            return section, data_cursor + count
        text = rest.strip()
        if not (text.startswith('"') and text.endswith('"')):
            raise AssemblerError("string literal expected", lineno)
        payload = text[1:-1].encode("utf-8").decode("unicode_escape")
        if directive != ".ascii":  # .asciz / .string
            payload += "\0"
        return section, _place(segments, data_cursor,
                               bytes(ord(char) & 0xFF for char in payload))

    def _data_value(self, token: str, lineno: int, symbols: Dict[str, int],
                    equates: Dict[str, int]) -> int:
        operand = self._parse_operand_value(token, lineno, equates)
        if isinstance(operand, int):
            return operand
        if operand.name in symbols:
            return symbols[operand.name] + operand.offset
        raise AssemblerError(
            f"forward data reference to {operand.name!r} not supported",
            lineno)

    @staticmethod
    def _split_commas(text: str) -> List[str]:
        return [t.strip() for t in text.split(",") if t.strip()]

    # ------------------------------------------------------------------
    # instructions and pseudo-instructions
    # ------------------------------------------------------------------

    _MEM_OPERAND_RE = re.compile(r"^(?:([^()]*)\()?\s*([\w.$]+)\s*\)?$")

    def _parse_mem_operand(self, token: str, lineno: int,
                           equates: Dict[str, int]) -> Tuple[int, int]:
        """Parse ``imm(reg)`` or ``(reg)`` and return (imm, reg_index)."""
        token = token.strip()
        if "(" not in token:
            raise AssemblerError(f"expected imm(reg), got {token!r}", lineno)
        imm_part, _, reg_part = token.partition("(")
        reg_part = reg_part.rstrip(")").strip()
        imm = 0
        if imm_part.strip():
            imm = self._parse_int(imm_part, lineno, equates)
        return imm, parse_int_reg(reg_part)

    def _parse_instruction(self, line: str, lineno: int,
                           equates: Dict[str, int]) -> List[_Proto]:
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = self._split_commas(operand_text)

        expanded = self._expand_pseudo(mnemonic, operands, lineno, equates)
        if expanded is not None:
            return expanded

        if mnemonic not in OPCODES:
            raise AssemblerError(f"unknown instruction {mnemonic!r}", lineno)
        return [self._parse_real(mnemonic, operands, lineno, equates)]

    def _parse_real(self, mnemonic: str, ops: List[str], lineno: int,
                    equates: Dict[str, int]) -> _Proto:
        spec = OPCODES[mnemonic]
        fmt = spec.fmt
        p = _Proto(mnemonic, line=lineno)
        try:
            if fmt == OperandFormat.R:
                p.rd, p.rs1, p.rs2 = (parse_int_reg(ops[0]),
                                      parse_int_reg(ops[1]),
                                      parse_int_reg(ops[2]))
            elif fmt == OperandFormat.I:
                p.rd = parse_int_reg(ops[0])
                p.rs1 = parse_int_reg(ops[1])
                p.imm = self._parse_int(ops[2], lineno, equates)
            elif fmt == OperandFormat.LOAD:
                p.rd = parse_int_reg(ops[0])
                p.imm, p.rs1 = self._parse_mem_operand(ops[1], lineno, equates)
            elif fmt == OperandFormat.STORE:
                p.rs2 = parse_int_reg(ops[0])
                p.imm, p.rs1 = self._parse_mem_operand(ops[1], lineno, equates)
            elif fmt == OperandFormat.BRANCH:
                p.rs1 = parse_int_reg(ops[0])
                p.rs2 = parse_int_reg(ops[1])
                p.imm = self._parse_operand_value(ops[2], lineno, equates)
                p.reloc = "branch"
            elif fmt == OperandFormat.U:
                p.rd = parse_int_reg(ops[0])
                p.imm = self._parse_int(ops[1], lineno, equates)
            elif fmt == OperandFormat.JAL:
                if len(ops) == 1:  # "jal target" implies rd=ra
                    p.rd = 1
                    p.imm = self._parse_operand_value(ops[0], lineno, equates)
                else:
                    p.rd = parse_int_reg(ops[0])
                    p.imm = self._parse_operand_value(ops[1], lineno, equates)
                p.reloc = "jal"
            elif fmt == OperandFormat.JALR:
                if len(ops) == 1:  # "jalr rs1" implies rd=ra, imm=0
                    p.rd = 1
                    p.rs1 = parse_int_reg(ops[0])
                else:
                    p.rd = parse_int_reg(ops[0])
                    p.rs1 = parse_int_reg(ops[1])
                    if len(ops) > 2:
                        p.imm = self._parse_int(ops[2], lineno, equates)
            elif fmt == OperandFormat.CSR:
                p.rd = parse_int_reg(ops[0])
                p.csr = self._parse_csr(ops[1], lineno, equates)
                p.rs1 = parse_int_reg(ops[2])
            elif fmt == OperandFormat.CSRI:
                p.rd = parse_int_reg(ops[0])
                p.csr = self._parse_csr(ops[1], lineno, equates)
                p.imm = self._parse_int(ops[2], lineno, equates)
            elif fmt == OperandFormat.NONE:
                pass
            elif fmt == OperandFormat.FP_R:
                p.rd, p.rs1, p.rs2 = (parse_fp_reg(ops[0]),
                                      parse_fp_reg(ops[1]),
                                      parse_fp_reg(ops[2]))
            elif fmt == OperandFormat.FP_LOAD:
                p.rd = parse_fp_reg(ops[0])
                p.imm, p.rs1 = self._parse_mem_operand(ops[1], lineno, equates)
            elif fmt == OperandFormat.FP_STORE:
                p.rs2 = parse_fp_reg(ops[0])
                p.imm, p.rs1 = self._parse_mem_operand(ops[1], lineno, equates)
            elif fmt == OperandFormat.FP_CMP:
                p.rd = parse_int_reg(ops[0])
                p.rs1 = parse_fp_reg(ops[1])
                p.rs2 = parse_fp_reg(ops[2])
            elif fmt == OperandFormat.FP_CVT_TO:
                p.rd = parse_fp_reg(ops[0])
                p.rs1 = parse_int_reg(ops[1])
            elif fmt == OperandFormat.FP_CVT_FROM:
                p.rd = parse_int_reg(ops[0])
                p.rs1 = parse_fp_reg(ops[1])
            elif fmt == OperandFormat.FP_UNARY:
                p.rd = parse_fp_reg(ops[0])
                p.rs1 = parse_fp_reg(ops[1])
            elif fmt == OperandFormat.AMO:
                p.rd = parse_int_reg(ops[0])
                p.rs2 = parse_int_reg(ops[1])
                _, p.rs1 = self._parse_mem_operand(ops[2], lineno, equates)
            elif fmt == OperandFormat.LR:
                p.rd = parse_int_reg(ops[0])
                _, p.rs1 = self._parse_mem_operand(ops[1], lineno, equates)
            else:  # pragma: no cover - exhaustive above
                raise AssemblerError(f"unhandled format {fmt}", lineno)
        except (IndexError, KeyError) as exc:
            raise AssemblerError(
                f"bad operands for {mnemonic}: {', '.join(ops)!r} ({exc})",
                lineno)
        return p

    def _parse_csr(self, token: str, lineno: int,
                   equates: Dict[str, int]) -> int:
        token = token.strip().lower()
        if token in CSR_ADDRS:
            return CSR_ADDRS[token]
        return self._parse_int(token, lineno, equates)

    # ------------------------------------------------------------------
    # pseudo-instruction expansion
    # ------------------------------------------------------------------

    def _expand_pseudo(self, mnemonic: str, ops: List[str], lineno: int,
                       equates: Dict[str, int]) -> Optional[List[_Proto]]:
        def real(text: str) -> List[_Proto]:
            return self._parse_instruction(text, lineno, equates)

        if mnemonic == "nop":
            return real("addi zero, zero, 0")
        if mnemonic == "mv":
            return real(f"addi {ops[0]}, {ops[1]}, 0")
        if mnemonic == "not":
            return real(f"xori {ops[0]}, {ops[1]}, -1")
        if mnemonic == "neg":
            return real(f"sub {ops[0]}, zero, {ops[1]}")
        if mnemonic == "negw":
            return real(f"subw {ops[0]}, zero, {ops[1]}")
        if mnemonic == "seqz":
            return real(f"sltiu {ops[0]}, {ops[1]}, 1")
        if mnemonic == "snez":
            return real(f"sltu {ops[0]}, zero, {ops[1]}")
        if mnemonic == "sltz":
            return real(f"slt {ops[0]}, {ops[1]}, zero")
        if mnemonic == "sgtz":
            return real(f"slt {ops[0]}, zero, {ops[1]}")
        if mnemonic == "sext.w":
            return real(f"addiw {ops[0]}, {ops[1]}, 0")
        if mnemonic == "beqz":
            return real(f"beq {ops[0]}, zero, {ops[1]}")
        if mnemonic == "bnez":
            return real(f"bne {ops[0]}, zero, {ops[1]}")
        if mnemonic == "blez":
            return real(f"bge zero, {ops[0]}, {ops[1]}")
        if mnemonic == "bgez":
            return real(f"bge {ops[0]}, zero, {ops[1]}")
        if mnemonic == "bltz":
            return real(f"blt {ops[0]}, zero, {ops[1]}")
        if mnemonic == "bgtz":
            return real(f"blt zero, {ops[0]}, {ops[1]}")
        if mnemonic == "bgt":
            return real(f"blt {ops[1]}, {ops[0]}, {ops[2]}")
        if mnemonic == "ble":
            return real(f"bge {ops[1]}, {ops[0]}, {ops[2]}")
        if mnemonic == "bgtu":
            return real(f"bltu {ops[1]}, {ops[0]}, {ops[2]}")
        if mnemonic == "bleu":
            return real(f"bgeu {ops[1]}, {ops[0]}, {ops[2]}")
        if mnemonic == "j":
            return real(f"jal zero, {ops[0]}")
        if mnemonic == "jr":
            return real(f"jalr zero, {ops[0]}, 0")
        if mnemonic == "ret":
            return real("jalr zero, ra, 0")
        if mnemonic == "call":
            return real(f"jal ra, {ops[0]}")
        if mnemonic == "tail":
            return real(f"jal zero, {ops[0]}")
        if mnemonic == "csrr":
            return real(f"csrrs {ops[0]}, {ops[1]}, zero")
        if mnemonic == "csrw":
            return real(f"csrrw zero, {ops[0]}, {ops[1]}")
        if mnemonic == "csrs":
            return real(f"csrrs zero, {ops[0]}, {ops[1]}")
        if mnemonic == "csrc":
            return real(f"csrrc zero, {ops[0]}, {ops[1]}")
        if mnemonic == "csrwi":
            return real(f"csrrwi zero, {ops[0]}, {ops[1]}")
        if mnemonic == "csrsi":
            return real(f"csrrsi zero, {ops[0]}, {ops[1]}")
        if mnemonic == "csrci":
            return real(f"csrrci zero, {ops[0]}, {ops[1]}")
        if mnemonic == "li":
            rd = ops[0]
            value = self._parse_int(ops[1], lineno, equates)
            return [self._parse_real(m, o, lineno, equates)
                    for m, o in self._li_sequence(rd, value)]
        if mnemonic in ("la", "lla"):
            rd = parse_int_reg(ops[0])
            target = self._parse_operand_value(ops[1], lineno, equates)
            if isinstance(target, int):
                return [self._parse_real(m, o, lineno, equates)
                        for m, o in self._li_sequence(ops[0], target)]
            hi = _Proto("auipc", rd=rd, imm=target, line=lineno,
                        reloc="pcrel_hi")
            lo = _Proto("addi", rd=rd, rs1=rd, imm=target, line=lineno,
                        reloc="pcrel_lo")
            return [hi, lo]
        if mnemonic == "fmv.d":
            return real(f"fmin.d {ops[0]}, {ops[1]}, {ops[1]}")
        return None

    @staticmethod
    def _li_sequence(rd: str, value: int) -> List[Tuple[str, List[str]]]:
        """Materialize a signed 64-bit constant, LLVM-style recursion."""
        value = ((value + (1 << 63)) % (1 << 64)) - (1 << 63)  # to signed

        ops: List[Tuple[str, List[str]]] = []

        def emit(v: int) -> None:
            if -2048 <= v < 2048:
                ops.append(("addi", [rd, "zero", str(v)]))
                return
            lo = v & 0xFFF
            if lo >= 0x800:
                lo -= 0x1000
            hi = (v - lo) >> 12
            emit(hi)
            ops.append(("slli", [rd, rd, "12"]))
            if lo:
                ops.append(("addi", [rd, rd, str(lo)]))

        emit(value)
        return ops

    # ------------------------------------------------------------------
    # symbol resolution
    # ------------------------------------------------------------------

    def _resolve(self, protos: Sequence[_Proto],
                 symbols: Dict[str, int]) -> List[Instruction]:
        instructions: List[Instruction] = []
        for index, proto in enumerate(protos):
            pc = self.text_base + index * INSTR_BYTES
            imm = proto.imm
            if isinstance(imm, _Symbol):
                if imm.name not in symbols:
                    raise AssemblerError(
                        f"undefined symbol {imm.name!r}", proto.line)
                target = symbols[imm.name] + imm.offset
                if proto.reloc in ("branch", "jal"):
                    imm = target  # absolute byte target (model simplification)
                elif proto.reloc == "pcrel_hi":
                    delta = target - pc
                    lo = delta & 0xFFF
                    if lo >= 0x800:
                        lo -= 0x1000
                    imm = (delta - lo) >> 12
                elif proto.reloc == "pcrel_lo":
                    # The matching auipc is the immediately preceding proto.
                    hi_pc = pc - INSTR_BYTES
                    delta = target - hi_pc
                    lo = delta & 0xFFF
                    if lo >= 0x800:
                        lo -= 0x1000
                    imm = lo
                else:
                    imm = target
            instructions.append(Instruction(
                proto.mnemonic, rd=proto.rd, rs1=proto.rs1, rs2=proto.rs2,
                imm=imm, csr=proto.csr, source_line=proto.line))
        return instructions


def _place(segments: Segments, cursor: int, payload: bytes) -> int:
    """Lay *payload* out at *cursor*; return the cursor after it.

    Contiguous data extends the last segment; data after an ``.align``
    gap starts a new one, so the gap stays unwritten.
    """
    if payload:
        if segments and segments[-1][0] + len(segments[-1][1]) == cursor:
            segments[-1][1].extend(payload)
        else:
            segments.append((cursor, bytearray(payload)))
    return cursor + len(payload)


def assemble(source: str, name: str = "program",
             text_base: int = DEFAULT_TEXT_BASE,
             data_base: int = DEFAULT_DATA_BASE) -> Program:
    """Convenience one-shot assembly entry point."""
    return Assembler(text_base=text_base, data_base=data_base).assemble(
        source, name=name)
