"""Timing-descriptor tables: per-static-op facts compiled to flat arrays.

The cycle loops of both cores never touch ``DynInst`` objects: they read
the dynamic columns of a :class:`~repro.isa.columnar.ColumnarTrace`
(``sidx``/``mem_addr``/``next_pc``/``taken``) and look every *static*
fact up in the tables below — ``descriptor[sidx[i]]`` instead of
attribute chains on a materialized object.  Each table is compiled once per trace per core
family and cached on the trace (:meth:`ColumnarTrace.timing_table`), so
a TMA sweep pays the compilation for its few-hundred static ops exactly
once, not once per dynamic instruction per config point.

Everything here is *derived* from ``StaticOp`` — the tables introduce no
new semantics; ``tests/golden_digests.json`` pins the loops' results.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from ..isa.columnar import StaticOp
from ..isa.instructions import InstrClass

# Issue-queue indices shared with the BOOM model.
INT_QUEUE = 0
MEM_QUEUE = 1
FP_QUEUE = 2

_QUEUE_OF_CLASS = {
    InstrClass.ALU: INT_QUEUE,
    InstrClass.MUL: INT_QUEUE,
    InstrClass.DIV: INT_QUEUE,
    InstrClass.BRANCH: INT_QUEUE,
    InstrClass.JUMP: INT_QUEUE,
    InstrClass.JUMP_REG: INT_QUEUE,
    InstrClass.CSR: INT_QUEUE,
    InstrClass.SYSTEM: INT_QUEUE,
    InstrClass.FENCE: INT_QUEUE,
    InstrClass.LOAD: MEM_QUEUE,
    InstrClass.STORE: MEM_QUEUE,
    InstrClass.AMO: MEM_QUEUE,
    InstrClass.FP_LOAD: MEM_QUEUE,
    InstrClass.FP_STORE: MEM_QUEUE,
    InstrClass.FP: FP_QUEUE,
    InstrClass.FP_DIV: FP_QUEUE,
}

_SERIALIZING_CLASSES = (InstrClass.FENCE, InstrClass.CSR, InstrClass.SYSTEM)

#: Rocket's commit-class event name per functional class ("arith" for
#: the rest).
_CLASS_SIGNAL = {
    InstrClass.LOAD: "load", InstrClass.FP_LOAD: "load",
    InstrClass.STORE: "store", InstrClass.FP_STORE: "store",
    InstrClass.AMO: "atomic",
    InstrClass.BRANCH: "branch",
    InstrClass.FENCE: "fence",
    InstrClass.SYSTEM: "system", InstrClass.CSR: "system",
}


class RocketOpTable(NamedTuple):
    """Rocket timing descriptors, one entry per static op."""

    pc: List[int]
    dest: List[int]
    srcs: Tuple[Tuple[int, ...], ...]
    latency: List[int]
    signal: List[str]           # commit-class event name
    is_mem: List[bool]
    is_store: List[bool]
    is_branch: List[bool]
    is_fence: List[bool]
    is_fence_i: List[bool]
    is_div: List[bool]
    is_mul: List[bool]
    is_csr: List[bool]
    is_fp: List[bool]           # FP or FP_DIV
    is_jump: List[bool]
    is_jump_reg: List[bool]
    is_call: List[bool]         # jal with rd == ra
    is_return: List[bool]       # jalr with no dest reading ra
    is_cf: List[bool]           # branch/jump/jump_reg


class BoomOpTable(NamedTuple):
    """BOOM timing descriptors, one entry per static op."""

    pc: List[int]
    dest: List[int]
    srcs: Tuple[Tuple[int, ...], ...]
    latency: List[int]
    mem_width: List[int]
    queue: List[int]            # issue-queue index
    serializes: List[bool]      # fence/CSR/system: lone dispatch
    is_load: List[bool]
    is_store: List[bool]
    is_branch: List[bool]
    is_fence: List[bool]
    is_fence_i: List[bool]
    is_jump: List[bool]
    is_jump_reg: List[bool]
    is_call: List[bool]
    is_return: List[bool]


def build_rocket_table(static_ops: Tuple[StaticOp, ...]) -> RocketOpTable:
    """Compile the Rocket descriptor columns from a static-op tuple."""
    JUMP, JUMP_REG = InstrClass.JUMP, InstrClass.JUMP_REG
    return RocketOpTable(
        pc=[op.pc for op in static_ops],
        dest=[op.dest for op in static_ops],
        srcs=tuple(op.srcs for op in static_ops),
        latency=[op.latency for op in static_ops],
        signal=[_CLASS_SIGNAL.get(op.cls, "arith") for op in static_ops],
        is_mem=[op.is_load or op.is_store for op in static_ops],
        is_store=[op.is_store for op in static_ops],
        is_branch=[op.is_branch for op in static_ops],
        is_fence=[op.is_fence for op in static_ops],
        is_fence_i=[op.mnemonic == "fence.i" for op in static_ops],
        is_div=[op.cls is InstrClass.DIV for op in static_ops],
        is_mul=[op.cls is InstrClass.MUL for op in static_ops],
        is_csr=[op.cls is InstrClass.CSR for op in static_ops],
        is_fp=[op.cls in (InstrClass.FP, InstrClass.FP_DIV)
               for op in static_ops],
        is_jump=[op.cls is JUMP for op in static_ops],
        is_jump_reg=[op.cls is JUMP_REG for op in static_ops],
        is_call=[op.cls is JUMP and op.dest == 1 for op in static_ops],
        is_return=[op.cls is JUMP_REG and op.dest < 0 and op.srcs == (1,)
                   for op in static_ops],
        is_cf=[op.is_branch or op.cls is JUMP or op.cls is JUMP_REG
               for op in static_ops],
    )


def build_boom_table(static_ops: Tuple[StaticOp, ...]) -> BoomOpTable:
    """Compile the BOOM descriptor columns from a static-op tuple."""
    JUMP, JUMP_REG = InstrClass.JUMP, InstrClass.JUMP_REG
    return BoomOpTable(
        pc=[op.pc for op in static_ops],
        dest=[op.dest for op in static_ops],
        srcs=tuple(op.srcs for op in static_ops),
        latency=[op.latency for op in static_ops],
        mem_width=[op.mem_width for op in static_ops],
        queue=[_QUEUE_OF_CLASS[op.cls] for op in static_ops],
        serializes=[op.cls in _SERIALIZING_CLASSES for op in static_ops],
        is_load=[op.is_load for op in static_ops],
        is_store=[op.is_store for op in static_ops],
        is_branch=[op.is_branch for op in static_ops],
        is_fence=[op.is_fence for op in static_ops],
        is_fence_i=[op.mnemonic == "fence.i" for op in static_ops],
        is_jump=[op.cls is JUMP for op in static_ops],
        is_jump_reg=[op.cls is JUMP_REG for op in static_ops],
        is_call=[op.cls is JUMP and op.dest == 1 for op in static_ops],
        is_return=[op.cls is JUMP_REG and op.dest < 0 and op.srcs == (1,)
                   for op in static_ops],
    )
