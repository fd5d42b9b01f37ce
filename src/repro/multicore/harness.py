"""The multicore harness: run a scenario, attribute the interference.

:func:`run_scenario` runs every active core of a
:class:`~repro.multicore.scenarios.Scenario` in cycle-lockstep order over one
:class:`~repro.multicore.uncore.SharedUncore`, then computes per-core
TMA and the self-vs-neighbor Memory-Bound split.

Two execution paths:

- **One active core** (every other slot idle): no shared uncore — the
  core is built exactly the way the single-core pipeline builds it.
  This path is *bit-identical* to :func:`repro.tools.tma_tool.run_core`
  by construction and is what the solo-oracle tests pin.
  ``force_lockstep=True`` instead routes the single core through the
  full uncore + lockstep stack, which the equivalence tests use to pin
  the shared path itself against the solo oracle.
- **Multiple active cores**: each core's cycle loop is a coroutine
  (:meth:`~repro.cores.rocket.RocketCore.steps`), and
  :func:`run_lockstep` interleaves them in the calling thread over one
  shared uncore, by next event: the core waiting on the earliest
  ``(cycle, arbitration rank)`` runs on, quiet stretches skipped, up to
  the cycle the next core waits on.  Shared-uncore state (bus cursor,
  shared LRU) is therefore mutated in one fixed global cycle order, the
  order a per-cycle lockstep gives, so repeated runs are identical.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.tma import TmaResult, compute_tma
from ..cores.base import UNBOUNDED, CoreResult, CycleSteps, RocketConfig
from ..cores.boom import BoomCore
from ..cores.batch import resolve_config_spec
from ..cores.rocket import RocketCore
from ..tools import cache
from ..uarch.cache import (
    DRAM_LATENCY,
    L1I_32K,
    L2_512K,
    Cache,
    CacheConfig,
    MemorySystem,
)
from ..workloads import build_trace
from .attribution import Attribution, attribute_mem_bound
from .scenarios import CoreSlot, Scenario, get_scenario
from .uncore import RequestorMetrics, SharedUncore


class MulticoreError(RuntimeError):
    """A scenario run failed; the first core error is the cause."""


@dataclass
class CoreInterference:
    """Everything one active core produced under sharing."""

    index: int
    workload: str
    config_name: str
    result: CoreResult
    tma: TmaResult
    attribution: Attribution
    uncore: RequestorMetrics
    bandwidth_share: float

    def to_payload(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "workload": self.workload,
            "config": self.config_name,
            "core": self.result.core,
            "cycles": self.result.cycles,
            "instret": self.result.instret,
            "ipc": self.result.ipc,
            "tma": {
                "level1": dict(self.tma.level1),
                "level2": dict(self.tma.level2),
                "dominant": self.tma.dominant_class(),
            },
            "attribution": self.attribution.to_payload(),
            "uncore": dict(self.uncore.to_payload(),
                           bandwidth_share=self.bandwidth_share),
        }


@dataclass
class MulticoreResult:
    """One scenario run: per-core interference plus run metadata."""

    scenario: str
    scale: float
    shared_bus: bool
    arbitration: str
    l2_kib: Optional[int]
    slots: List[CoreSlot]
    cores: List[CoreInterference]
    wall_s: float

    @property
    def cycles(self) -> int:
        """Lockstep length: the longest core run."""
        return max((c.result.cycles for c in self.cores), default=0)

    def core_at(self, index: int) -> CoreInterference:
        for core in self.cores:
            if core.index == index:
                return core
        raise KeyError(f"no active core at slot {index}")

    def to_payload(self) -> Dict[str, Any]:
        active = {c.index for c in self.cores}
        slots = []
        for i, slot in enumerate(self.slots):
            if i in active:
                slots.append(self.core_at(i).to_payload())
            else:
                slots.append({"index": i, "workload": slot.workload,
                              "config": slot.config, "idle": True})
        return {
            "scenario": self.scenario,
            "scale": self.scale,
            "shared_bus": self.shared_bus,
            "arbitration": self.arbitration,
            "l2_kib": self.l2_kib,
            "cycles": self.cycles,
            "wall_s": self.wall_s,
            "cores": slots,
        }


# ----------------------------------------------------------------------
# Execution


def _l2_config(scenario: Scenario) -> CacheConfig:
    if scenario.l2_kib is None:
        return L2_512K
    return CacheConfig("L2", scenario.l2_kib * 1024, L2_512K.ways,
                       L2_512K.block_bytes,
                       hit_latency=L2_512K.hit_latency)


def _make_core(slot: CoreSlot, memory: Optional[MemorySystem] = None):
    config = resolve_config_spec(slot.config)
    if isinstance(config, RocketConfig):
        return RocketCore(config, memory=memory)
    return BoomCore(config, memory=memory)


def _shared_memory(uncore: SharedUncore, requestor: int,
                   slot: CoreSlot) -> MemorySystem:
    """A per-core MemorySystem whose L2 is a view of the shared uncore.

    Mirrors :meth:`MemorySystem.build` exactly, with the view standing
    in for the private L2 (the L1 geometry and wiring are unchanged).
    """
    config = resolve_config_spec(slot.config)
    view = uncore.view(requestor)
    l1i = Cache(L1I_32K, next_level=view)
    return MemorySystem(l1i=l1i, l1d_config=config.l1d, l2=view,
                        dram_latency=uncore.dram_latency)


def _solo_metrics(result: CoreResult) -> RequestorMetrics:
    """Uncore metrics equivalent for the solo fast path."""
    stats = result.l2_stats
    return RequestorMetrics(accesses=stats.accesses, misses=stats.misses,
                            self_misses=stats.misses)


def _core_label(scenario: Scenario, index: int, slot: CoreSlot) -> str:
    """How a core's failure names it: scenario, core index, workload."""
    return f"scenario {scenario.name!r} core {index} ({slot.workload})"


def run_lockstep(steps: Sequence[Tuple[str, CycleSteps]],
                 arbitration: str) -> List[CoreResult]:
    """Run every ``(label, steps)`` core loop to its result in the order
    of a per-cycle lockstep: each cycle runs every unfinished core in
    arbitration rank (``fcfs`` is core order; ``round-robin`` rotates
    the first slot so core ``(ordinal - cycle) % n == 0`` leads).

    The cores wait on a heap of ``(cycle, rank, ordinal)``.  The first
    runs on up to the cycle the next one waits on, and through it if it
    ranks first there.  Cores touch one another only through the shared
    uncore, which changes only inside an access, and a skipped quiet
    cycle makes none.  A core that skips over its bound into the
    watchdog yields the cycle before, whose end is where a per-cycle
    lockstep checks it.  A finished core drops out.  An exception from
    a core closes the other loops and raises :class:`MulticoreError`,
    naming the core by its label.  Results come back in the order of
    *steps*.
    """
    n = len(steps)
    rotate = arbitration == "round-robin"
    results: List[Any] = [None] * n
    waiting: List[Tuple[int, int, int]] = []

    def rank(ordinal: int, cycle: int) -> int:
        return (ordinal - cycle) % n if rotate else ordinal

    def resume(ordinal: int, bound: Optional[int]) -> None:
        label, gen = steps[ordinal]
        try:
            cycle = gen.send(bound)
        except StopIteration as stop:
            results[ordinal] = stop.value
            return
        except Exception as exc:
            for _, other in steps:
                other.close()
            raise MulticoreError(f"{label} failed: {exc}") from exc
        heappush(waiting, (cycle, rank(ordinal, cycle), ordinal))

    # Run every loop's set-up up to its first cycle, then the cycles.
    for ordinal in range(n):
        resume(ordinal, None)
    while waiting:
        _, _, ordinal = heappop(waiting)
        bound = UNBOUNDED
        if waiting:
            bound, next_rank, _ = waiting[0]
            if rank(ordinal, bound) < next_rank:
                bound += 1
        resume(ordinal, bound)
    return results


def run_scenario(scenario: Union[str, Scenario], *,
                 max_cycles: Optional[int] = None,
                 force_lockstep: bool = False) -> MulticoreResult:
    """Run *scenario* (a name or a :class:`Scenario`) to completion."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    scenario.validate()
    active = scenario.active_slots()
    started = time.monotonic()

    # The solo shortcut runs the stock single-core hierarchy, so it
    # only serves scenarios with the stock L2 geometry.
    if len(active) == 1 and not force_lockstep and scenario.l2_kib is None:
        index, slot = active[0]
        trace = build_trace(slot.workload, scale=scenario.scale)
        core = _make_core(slot)
        try:
            result = core.run(trace, max_cycles=max_cycles)
        except Exception as exc:
            raise MulticoreError(
                f"{_core_label(scenario, index, slot)} failed: {exc}"
            ) from exc
        tma = compute_tma(result)
        metrics = _solo_metrics(result)
        attribution = attribute_mem_bound(tma, metrics, DRAM_LATENCY)
        cores = [CoreInterference(
            index=index, workload=slot.workload, config_name=slot.config,
            result=result, tma=tma, attribution=attribution,
            uncore=metrics, bandwidth_share=0.0)]
        return MulticoreResult(
            scenario=scenario.name, scale=scenario.scale,
            shared_bus=scenario.shared_bus,
            arbitration=scenario.arbitration, l2_kib=scenario.l2_kib,
            slots=list(scenario.slots), cores=cores,
            wall_s=time.monotonic() - started)

    uncore = SharedUncore(len(scenario.slots),
                          l2_config=_l2_config(scenario),
                          shared_bus=scenario.shared_bus)
    steps = []
    for index, slot in active:
        core = _make_core(slot, memory=_shared_memory(uncore, index, slot))
        trace = build_trace(slot.workload, scale=scenario.scale)
        steps.append((_core_label(scenario, index, slot),
                      core.steps(trace, max_cycles=max_cycles)))
    results = run_lockstep(steps, scenario.arbitration)

    cores = []
    for (index, slot), result in zip(active, results):
        tma = compute_tma(result)
        metrics = uncore.metrics[index]
        attribution = attribute_mem_bound(tma, metrics,
                                          uncore.dram_latency)
        cores.append(CoreInterference(
            index=index, workload=slot.workload, config_name=slot.config,
            result=result, tma=tma, attribution=attribution,
            uncore=metrics,
            bandwidth_share=uncore.bandwidth_share(index)))
    return MulticoreResult(
        scenario=scenario.name, scale=scenario.scale,
        shared_bus=scenario.shared_bus, arbitration=scenario.arbitration,
        l2_kib=scenario.l2_kib, slots=list(scenario.slots), cores=cores,
        wall_s=time.monotonic() - started)


# ----------------------------------------------------------------------
# Result-cache identity of a scenario run (``MulticoreJob.cache_key``)


def multicore_fingerprint() -> str:
    """Model fingerprint extended with the multicore modules' source."""
    return cache.source_fingerprint(cache.MULTICORE_PACKAGES)


def scenario_cache_key(scenario: Scenario) -> str:
    """Disk-cache key for one fully-resolved scenario run."""
    digest = hashlib.sha256()
    digest.update(multicore_fingerprint().encode())
    digest.update(scenario.name.encode())
    for slot in scenario.slots:
        digest.update(f"{slot.workload}@{slot.config};".encode())
    digest.update(f"{scenario.scale:.6f}".encode())
    digest.update(f"bus={scenario.shared_bus}".encode())
    digest.update(scenario.arbitration.encode())
    digest.update(f"l2={scenario.l2_kib}".encode())
    return "mc-" + digest.hexdigest()[:24]
