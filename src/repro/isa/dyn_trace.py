"""One committed dynamic instruction, as the timing models see it.

The core timing models are *trace driven* (DESIGN.md §4): the program is
executed functionally once, and the resulting committed-path trace — a
:class:`~repro.isa.columnar.ColumnarTrace` with resolved branch outcomes
and memory addresses — is replayed through the Rocket and BOOM
cycle-level models.  :class:`DynInst` is the lazy per-instruction view
of one trace entry.  Wrong-path work is modelled inside the timing
models with phantom µops, so the trace only ever contains the committed
path.

Register identifiers are unified across the integer and FP files:
integer register ``xN`` is id ``N`` and FP register ``fN`` is id
``32 + N``.  A destination id of ``-1`` means "writes nothing" (including
writes to ``x0``).
"""

from __future__ import annotations

from typing import Optional, Tuple

from .instructions import InstrClass

NO_REG = -1
FP_REG_BASE = 32


class DynInst:
    """One committed dynamic instruction.

    Attributes:
        index: position in the dynamic trace.
        pc: byte address of the instruction.
        cls: functional-unit class.
        dest: unified destination register id, or ``NO_REG``.
        srcs: tuple of unified source register ids (x0 excluded).
        latency: execution latency in cycles (memory classes get their
            latency from the cache model instead).
        mem_addr / mem_width: effective address and size for memory ops.
        is_load / is_store: memory direction flags (AMOs set both).
        is_branch: conditional branch flag.
        taken: branch outcome (meaningful when ``is_branch``); direct and
            indirect jumps are always taken.
        next_pc: address of the next committed instruction.
        is_fence: pipeline-draining fence flag.
        csr: CSR address for Zicsr instructions, else ``-1``.
        csr_write: value written to the CSR, or ``None`` for pure reads.
        mnemonic: original mnemonic (reporting/debug only).
    """

    __slots__ = ("index", "pc", "cls", "dest", "srcs", "latency", "mem_addr",
                 "mem_width", "is_load", "is_store", "is_branch", "taken",
                 "next_pc", "is_fence", "csr", "csr_write", "mnemonic",
                 "is_mem", "is_control_flow")

    def __init__(self, index: int, pc: int, cls: InstrClass, dest: int,
                 srcs: Tuple[int, ...], latency: int, next_pc: int,
                 mnemonic: str, mem_addr: int = 0, mem_width: int = 0,
                 is_load: bool = False, is_store: bool = False,
                 is_branch: bool = False, taken: bool = False,
                 is_fence: bool = False, csr: int = -1,
                 csr_write: Optional[int] = None) -> None:
        self.index = index
        self.pc = pc
        self.cls = cls
        self.dest = dest
        self.srcs = srcs
        self.latency = latency
        self.next_pc = next_pc
        self.mnemonic = mnemonic
        self.mem_addr = mem_addr
        self.mem_width = mem_width
        self.is_load = is_load
        self.is_store = is_store
        self.is_branch = is_branch
        self.taken = taken
        self.is_fence = is_fence
        self.csr = csr
        self.csr_write = csr_write
        # Derived flags are precomputed: the core models read them every
        # simulated cycle, so property-call overhead is measurable.
        self.is_mem = is_load or is_store
        self.is_control_flow = cls in (InstrClass.BRANCH, InstrClass.JUMP,
                                       InstrClass.JUMP_REG)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DynInst(#{self.index} pc={self.pc:#x} {self.mnemonic}"
                f" next={self.next_pc:#x})")
