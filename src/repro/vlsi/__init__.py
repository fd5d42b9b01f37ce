"""Physical-design overhead model (the §V-C substitution)."""

from .area import (FLOP_BIT_AREA, GATE_AREA, MEM_BIT_AREA, ModuleArea,
                   tile_area, tile_modules)
from .floorplan import EVENT_SOURCE_MODULE, Floorplan, Placement, floorplan
from .flow import (ARCHITECTURES, CLOCK_PERIOD_NS, ArchStructure,
                   EventSourceGroup, FlowResult, PhysicalFlow,
                   event_source_groups, paper_calibration,
                   single_lane_wire_reduction, structure_for, sweep)

__all__ = [
    "ARCHITECTURES",
    "ArchStructure",
    "CLOCK_PERIOD_NS",
    "EVENT_SOURCE_MODULE",
    "EventSourceGroup",
    "FLOP_BIT_AREA",
    "Floorplan",
    "FlowResult",
    "GATE_AREA",
    "MEM_BIT_AREA",
    "ModuleArea",
    "PhysicalFlow",
    "Placement",
    "event_source_groups",
    "floorplan",
    "paper_calibration",
    "single_lane_wire_reduction",
    "structure_for",
    "sweep",
    "tile_area",
    "tile_modules",
]
