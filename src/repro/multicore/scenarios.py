"""Named co-location scenarios: which workload runs on which core.

A scenario is a tuple of core slots (workload + core config), plus the
uncore knobs (shared bus on/off, arbitration).  Slots may name the
reserved ``idle`` pseudo-workload — an idle slot instantiates no core
at all, which is how the solo-equivalence oracle runs one core through
the full multicore stack.

The registry names the mixes the paper-style interference studies keep
reaching for:

- ``noisy-neighbor``: a latency-sensitive Rocket tenant sharing the
  uncore with a bandwidth-hungry BOOM streaming kernel;
- ``symmetric``: two identical tenants — attribution should come out
  statistically symmetric;
- ``latency-victim``: one victim against two aggressors on a 3-core
  socket, the worst-case mix for neighbor-induced misses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..cores.batch import resolve_config_spec
from ..workloads.registry import IDLE_WORKLOAD, get_workload, is_idle

#: Hard cap on scenario width: the widest socket the registry's
#: interference studies model.
MAX_CORES = 4

#: Within-cycle core order at the shared uncore: ``round-robin``
#: rotates the first slot every cycle, ``fcfs`` is fixed core order.
ARBITRATIONS = ("round-robin", "fcfs")


@dataclass(frozen=True)
class CoreSlot:
    """One core socket: a workload name and a core-config spec.

    ``config`` accepts any Table IV name or canonical grid-point key
    (``rocket+l1d=4``), the same spec language the batch sweep uses.
    """

    workload: str
    config: str

    @property
    def idle(self) -> bool:
        return is_idle(self.workload)

    def validate(self) -> None:
        if not self.idle:
            get_workload(self.workload)  # raises KeyError on unknowns
        resolve_config_spec(self.config)


@dataclass(frozen=True)
class Scenario:
    """A named co-location mix plus its uncore knobs."""

    name: str
    description: str
    slots: Tuple[CoreSlot, ...]
    scale: float = 1.0
    shared_bus: bool = True
    arbitration: str = "round-robin"
    #: Shared-L2 capacity override in KiB (None = the Table IV 512 KiB).
    #: Capacity-contention scenarios shrink it so co-running working
    #: sets actually collide at scales cheap enough to sweep.
    l2_kib: Optional[int] = None

    def validate(self) -> None:
        if not 1 <= len(self.slots) <= MAX_CORES:
            raise ValueError(
                f"scenario {self.name!r} has {len(self.slots)} slots; "
                f"expected 1..{MAX_CORES}")
        if all(slot.idle for slot in self.slots):
            raise ValueError(
                f"scenario {self.name!r} has no active core")
        if self.l2_kib is not None and self.l2_kib < 1:
            raise ValueError(
                f"scenario {self.name!r}: l2_kib must be positive")
        if self.arbitration not in ARBITRATIONS:
            raise ValueError(
                f"scenario {self.name!r}: unknown arbitration "
                f"{self.arbitration!r}; expected one of {ARBITRATIONS}")
        for slot in self.slots:
            slot.validate()

    def active_slots(self) -> List[Tuple[int, CoreSlot]]:
        """(slot index, slot) for every non-idle slot."""
        return [(i, slot) for i, slot in enumerate(self.slots)
                if not slot.idle]

    def with_overrides(self, cores: Optional[int] = None,
                       scale: Optional[float] = None,
                       shared_bus: Optional[bool] = None,
                       arbitration: Optional[str] = None) -> "Scenario":
        """A copy with CLI/service overrides applied.

        ``cores=N`` trims the mix to its first N slots (or pads with
        idle slots up to N), so one scenario definition serves 2-, 3-
        and 4-core sockets.
        """
        scenario = self
        if cores is not None:
            if not 1 <= cores <= MAX_CORES:
                raise ValueError(
                    f"cores must be 1..{MAX_CORES}, got {cores}")
            slots = list(scenario.slots[:cores])
            while len(slots) < cores:
                slots.append(CoreSlot(IDLE_WORKLOAD, "rocket"))
            scenario = replace(scenario, slots=tuple(slots))
        if scale is not None:
            scenario = replace(scenario, scale=scale)
        if shared_bus is not None:
            scenario = replace(scenario, shared_bus=shared_bus)
        if arbitration is not None:
            scenario = replace(scenario, arbitration=arbitration)
        return scenario


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="noisy-neighbor",
            description=("latency-sensitive Rocket tenant vs. a "
                         "bandwidth-hungry BOOM streaming neighbor"),
            slots=(CoreSlot("median", "rocket"),
                   CoreSlot("spmv", "large-boom")),
        ),
        Scenario(
            name="symmetric",
            description="two identical streaming tenants, fair-share check",
            slots=(CoreSlot("vvadd", "rocket"),
                   CoreSlot("vvadd", "rocket")),
        ),
        Scenario(
            name="latency-victim",
            description=("one pointer-chasing victim against two "
                         "streaming aggressors on a 3-core socket"),
            slots=(CoreSlot("qsort", "rocket"),
                   CoreSlot("mm", "large-boom"),
                   CoreSlot("spmv", "rocket")),
        ),
        Scenario(
            name="capacity-clash",
            description=("two cache-pressured radix sorts (tiny L1Ds) "
                         "over a deliberately small shared L2 — "
                         "capacity eviction makes neighbor-induced "
                         "misses visible"),
            slots=(CoreSlot("rsort", "rocket+l1d=4"),
                   CoreSlot("rsort", "large-boom+l1d=4")),
            l2_kib=8,
        ),
    )
}


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {scenario_names()}"
        ) from None
