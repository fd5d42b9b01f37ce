"""The multicore harness: run a scenario, attribute the interference.

:func:`run_scenario` steps every active core of a
:class:`~repro.multicore.scenarios.Scenario` in cycle-lockstep over one
:class:`~repro.multicore.uncore.SharedUncore`, then computes per-core
TMA and the self-vs-neighbor Memory-Bound split.

Two execution paths:

- **One active core** (every other slot idle): no threads, no turnstile
  — the core is built exactly the way the single-core pipeline builds
  it.  This path is *bit-identical* to
  :func:`repro.tools.tma_tool.run_core` by construction and is what the
  solo-oracle tests pin.  ``force_lockstep=True`` instead routes the
  single core through the full uncore + turnstile stack, which the
  equivalence tests use to pin the shared path itself against the solo
  oracle.
- **Multiple active cores**: one thread per core, each attached to a
  :class:`~repro.multicore.lockstep.TurnstileHook` (the cycle loop's
  per-cycle fault hook), sharing one uncore.  Deterministic by
  construction: the turnstile serializes cycles in arbitration order,
  so repeated runs are identical.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from ..core.tma import TmaResult, compute_tma
from ..cores.base import CoreResult, RocketConfig
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
from .lockstep import CycleTurnstile, LockstepError, TurnstileHook
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
    """Uncore metrics equivalent for the threadless solo fast path."""
    stats = result.l2_stats
    return RequestorMetrics(accesses=stats.accesses, misses=stats.misses,
                            self_misses=stats.misses)


def run_scenario(scenario: Union[str, Scenario], *,
                 max_cycles: Optional[int] = None,
                 force_lockstep: bool = False,
                 lockstep_timeout: float = 300.0) -> MulticoreResult:
    """Run *scenario* (a name or a :class:`Scenario`) to completion."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    scenario.validate()
    active = scenario.active_slots()
    started = time.monotonic()

    # The threadless shortcut runs the stock single-core hierarchy, so
    # it only serves scenarios with the stock L2 geometry.
    if len(active) == 1 and not force_lockstep and scenario.l2_kib is None:
        index, slot = active[0]
        trace = build_trace(slot.workload, scale=scenario.scale)
        core = _make_core(slot)
        result = core.run(trace, max_cycles=max_cycles)
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

    # Traces are built up front (and cached), so no thread ever blocks
    # the turnstile on functional execution.
    traces = {i: build_trace(slot.workload, scale=scenario.scale)
              for i, slot in active}
    uncore = SharedUncore(len(scenario.slots),
                          l2_config=_l2_config(scenario),
                          shared_bus=scenario.shared_bus)
    turnstile = CycleTurnstile(len(active),
                               arbitration=scenario.arbitration,
                               timeout=lockstep_timeout)
    results: Dict[int, CoreResult] = {}
    errors: Dict[int, BaseException] = {}

    def drive(ordinal: int, index: int, slot: CoreSlot) -> None:
        try:
            core = _make_core(slot, memory=_shared_memory(uncore, index,
                                                          slot))
            core.fault_hook = TurnstileHook(turnstile, ordinal)
            results[index] = core.run(traces[index],
                                      max_cycles=max_cycles)
        except BaseException as exc:  # noqa: BLE001 - relayed below
            errors[index] = exc
            turnstile.fail(ordinal, exc)
        finally:
            turnstile.finish(ordinal)

    threads = [
        threading.Thread(target=drive, args=(ordinal, index, slot),
                         name=f"mc-{scenario.name}-core{index}",
                         daemon=True)
        for ordinal, (index, slot) in enumerate(active)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    if errors:
        index = min(errors)
        first = errors[index]
        # A LockstepError is collateral damage from another core's
        # failure; prefer reporting a root cause when one exists.
        for i in sorted(errors):
            if not isinstance(errors[i], LockstepError):
                index, first = i, errors[i]
                break
        raise MulticoreError(
            f"scenario {scenario.name!r} core {index} "
            f"({scenario.slots[index].workload}) failed: {first}"
        ) from first

    cores = []
    for index, slot in active:
        result = results[index]
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
# Cached payload entry point (CLI --json and the service job reuse it)


_MULTICORE_MODULES = ("uncore", "lockstep", "scenarios", "attribution",
                      "harness")

_fingerprint_cache: Optional[str] = None


def multicore_fingerprint() -> str:
    """Model fingerprint extended with the multicore modules' source."""
    global _fingerprint_cache
    if _fingerprint_cache is None:
        import importlib
        import os

        digest = hashlib.sha256(cache.model_fingerprint().encode())
        for name in _MULTICORE_MODULES:
            module = importlib.import_module(f"repro.multicore.{name}")
            path = getattr(module, "__file__", None)
            if path and os.path.exists(path):
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _fingerprint_cache = digest.hexdigest()[:16]
    return _fingerprint_cache


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


def run_scenario_payload(scenario: Union[str, Scenario], *,
                         cores: Optional[int] = None,
                         scale: Optional[float] = None,
                         shared_bus: Optional[bool] = None,
                         arbitration: Optional[str] = None,
                         max_cycles: Optional[int] = None,
                         use_cache: bool = True) -> Dict[str, Any]:
    """Resolve overrides, run (or serve from disk), return the payload."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    scenario = scenario.with_overrides(cores=cores, scale=scale,
                                       shared_bus=shared_bus,
                                       arbitration=arbitration)
    scenario.validate()
    key = scenario_cache_key(scenario)
    if use_cache:
        cached = cache.load_payload(key)
        if cached is not None:
            return dict(cached, from_cache=True)
    payload = run_scenario(scenario, max_cycles=max_cycles).to_payload()
    if use_cache:
        cache.store_payload(key, payload)
    return dict(payload, from_cache=False)
