"""Analytical area model for the BOOM tile (the §V-C substitution).

The paper pushes each BOOM size through a Cadence flow on ASAP7; we
replace that with an analytical model: every pipeline module gets an
area estimate derived from its configuration parameters, using
flop/SRAM-bit constants in the right ballpark for a 7 nm-class node.
As the paper notes, no ASAP7 memory compiler was available, so *all
memories unroll into register arrays* — we model exactly that (SRAM
bits cost flop-like area), which is also why the caches and TAGE tables
dominate the tile.

Absolute µm² values are a calibrated model, not a synthesis result; the
evaluation only relies on *relative* overheads and trends, which come
from structural counts (see :mod:`repro.vlsi.flow`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..cores.base import BoomConfig

#: µm² per flip-flop bit (ASAP7-class, incl. local routing overhead).
FLOP_BIT_AREA = 2.0
#: µm² per unrolled-memory bit (slightly denser than a generic flop).
MEM_BIT_AREA = 1.4
#: µm² per gate-equivalent of combinational logic.
GATE_AREA = 0.6

#: TAGE storage per Table IV: 14+14+28+28+28 KiB.
TAGE_BITS = (14 + 14 + 28 + 28 + 28) * 1024 * 8


@dataclass(frozen=True)
class ModuleArea:
    """One floorplanned module: name and area in µm²."""

    name: str
    area: float


def tile_modules(config: BoomConfig) -> List[ModuleArea]:
    """Per-module area estimates for one BOOM size.

    The module list matches the event-source map of Fig. 2b: frontend
    (I$ + predictor + fetch buffer), decode/rename, the three issue
    queues, execution units, LSU + D$, ROB, and the CSR file that hosts
    the PMU counters.
    """
    w_c = config.decode_width
    l1_bits = 32 * 1024 * 8

    frontend = (l1_bits * MEM_BIT_AREA                 # unrolled L1I
                + TAGE_BITS * MEM_BIT_AREA * 0.5       # TAGE + BTB
                + config.btb_entries * 60 * FLOP_BIT_AREA
                + config.fetch_buffer_size * 40 * FLOP_BIT_AREA
                + config.fetch_width * 2500 * GATE_AREA)
    decode = w_c * (9000 * GATE_AREA + 300 * FLOP_BIT_AREA)
    iq_int = config.iq_int * 90 * FLOP_BIT_AREA \
        + config.issue_int * 4000 * GATE_AREA
    iq_mem = config.iq_mem * 90 * FLOP_BIT_AREA \
        + config.issue_mem * 4000 * GATE_AREA
    iq_fp = config.iq_fp * 100 * FLOP_BIT_AREA \
        + config.issue_fp * 4000 * GATE_AREA
    execute = (config.issue_int * 14000 + config.issue_mem * 9000
               + config.issue_fp * 30000) * GATE_AREA \
        + (128 + config.rob_entries) * 64 * FLOP_BIT_AREA  # PRF
    lsu = (l1_bits * MEM_BIT_AREA                      # unrolled L1D
           + (config.ldq_entries + config.stq_entries) * 90 * FLOP_BIT_AREA
           + config.mshrs * 600 * GATE_AREA)
    rob = config.rob_entries * 45 * FLOP_BIT_AREA \
        + w_c * 3000 * GATE_AREA
    csr = 31 * 64 * FLOP_BIT_AREA + 9000 * GATE_AREA

    return [
        ModuleArea("frontend", frontend),
        ModuleArea("decode", decode),
        ModuleArea("iq_int", iq_int),
        ModuleArea("iq_mem", iq_mem),
        ModuleArea("iq_fp", iq_fp),
        ModuleArea("execute", execute),
        ModuleArea("lsu", lsu),
        ModuleArea("rob", rob),
        ModuleArea("csr", csr),
    ]


def tile_area(config: BoomConfig) -> float:
    """Total tile area in µm²."""
    return sum(module.area for module in tile_modules(config))
