"""RV64-subset ISA model: registers, instructions, assembler, executor.

This package provides everything needed to express the paper's workload
suite as real RISC-V-style programs and to obtain committed-path dynamic
traces that the Rocket and BOOM timing models replay.
"""

from .assembler import Assembler, assemble
from .columnar import ColumnarTrace, StaticOp, unpack
from .compiler import CompiledProgram, CompileError, compile_program, execute
from .dyn_trace import DynInst, FP_REG_BASE, NO_REG
from .errors import AssemblerError, ExecutionError, IsaError
from .instructions import InstrClass, Instruction, OPCODES, OpSpec
from .memory import SparseMemory
from .program import DEFAULT_DATA_BASE, DEFAULT_TEXT_BASE, Program

__all__ = [
    "Assembler",
    "AssemblerError",
    "ColumnarTrace",
    "CompileError",
    "CompiledProgram",
    "DEFAULT_DATA_BASE",
    "DEFAULT_TEXT_BASE",
    "DynInst",
    "ExecutionError",
    "FP_REG_BASE",
    "InstrClass",
    "Instruction",
    "IsaError",
    "NO_REG",
    "OPCODES",
    "OpSpec",
    "Program",
    "SparseMemory",
    "StaticOp",
    "assemble",
    "compile_program",
    "execute",
    "unpack",
]
