"""Program container: placed instructions plus an initialized data image.

A :class:`Program` is what the assembler produces and what both the
functional executor and the core timing models consume.  Instructions are
placed at 4-byte granularity starting at :data:`DEFAULT_TEXT_BASE` (the
standard RISC-V DRAM base used by Rocket/BOOM bare-metal payloads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .instructions import Instruction

DEFAULT_TEXT_BASE = 0x8000_0000
DEFAULT_DATA_BASE = 0x8010_0000
INSTR_BYTES = 4


@dataclass
class Program:
    """An assembled program image.

    Attributes:
        instructions: static instructions in placement order.
        text_base: byte address of the first instruction.
        data: initial data-memory image as ``(base_address, bytes)``
            segments in placement order, each one contiguous run of
            initialized bytes.
        symbols: label name -> byte address.
        entry: byte address execution starts at.
        name: human-readable program name (used in reports).
    """

    instructions: List[Instruction]
    text_base: int = DEFAULT_TEXT_BASE
    data: Tuple[Tuple[int, bytes], ...] = ()
    symbols: Dict[str, int] = field(default_factory=dict)
    entry: Optional[int] = None
    name: str = "program"

    def __post_init__(self) -> None:
        for index, instr in enumerate(self.instructions):
            instr.addr = self.text_base + index * INSTR_BYTES
        if self.entry is None:
            self.entry = self.text_base
        self._index_by_addr = {
            instr.addr: index for index, instr in enumerate(self.instructions)
        }

    @property
    def text_end(self) -> int:
        """One past the last instruction byte."""
        return self.text_base + len(self.instructions) * INSTR_BYTES

    @property
    def code_bytes(self) -> int:
        """Static code footprint in bytes."""
        return len(self.instructions) * INSTR_BYTES

    def instruction_at(self, pc: int) -> Instruction:
        """Return the instruction placed at byte address *pc*.

        Raises:
            KeyError: when *pc* does not name an instruction.
        """
        index = self._index_by_addr.get(pc)
        if index is None:
            raise KeyError(f"no instruction at pc {pc:#x}")
        return self.instructions[index]

    def index_of(self, pc: int) -> int:
        """Return the instruction index for byte address *pc*."""
        return self._index_by_addr[pc]

    def has_instruction(self, pc: int) -> bool:
        """Return True when *pc* names an instruction in this program."""
        return pc in self._index_by_addr

    def resolve(self, symbol: str) -> int:
        """Return the byte address of *symbol*.

        Raises:
            KeyError: when the symbol is unknown.
        """
        return self.symbols[symbol]

    def __len__(self) -> int:
        return len(self.instructions)
