"""Common core-model infrastructure: configs, signals, results, observers.

Signal convention
-----------------

Each cycle a core produces a mapping ``{event_name: lane_bitmask}`` where
bit *i* of the mask is the boolean signal of event source *i* in that
cycle (single-source events use bit 0).  This is exactly the wire-level
view the PMU counter architectures (Fig. 6) and the TracerV-style tracer
(§IV-C) tap.

Each core has one cycle loop, which accumulates the core's own event
totals in place without building any per-cycle record.  The record is
built only when it is needed: attached :class:`SignalObserver` instances
(counter-architecture hardware models, the cycle tracer, AutoCounter)
receive it at the end of every cycle.  A *stepped* loop is a
coroutine (:data:`CycleSteps`): it yields the cycle number at the top
of every cycle and takes back whether that cycle stalls.  ``run``
answers each yield from the core's :class:`CoreFaultHook`, and the
multicore harness steps several cores one cycle at a time in one
thread.  A plain run pays two tests of one flag per cycle for this
hook and no per-instruction work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Mapping, Optional, Protocol

from ..isa.errors import RunTimeout
from ..uarch.branch import PredictorStats
from ..uarch.cache import CacheConfig, CacheStats, L1D_32K


class SignalObserver(Protocol):
    """Anything that wants the per-cycle event signals (PMU HW, tracer)."""

    def on_cycle(self, cycle: int, signals: Mapping[str, int]) -> None:
        """Observe the lane bitmasks of every event for one cycle."""
        ...  # pragma: no cover - protocol


class CoreFaultHook(Protocol):
    """Injection point the fault injector uses to stall a core.

    A core consults the hook at the top of every simulated cycle; a
    ``True`` return means the whole pipeline is frozen that cycle (a
    hung memory system / clock-gated core), so the cycle passes with no
    fetch, issue, or commit and no signals.  Combined with the
    ``max_cycles`` watchdog this models — and detects — runaway runs.
    """

    def stall_cycle(self, cycle: int) -> bool:
        ...  # pragma: no cover - protocol


#: A core's cycle loop as a coroutine: it yields each cycle number at
#: the top of that cycle, takes back whether the cycle stalls, and
#: returns the run's :class:`CoreResult`.
CycleSteps = Generator[int, bool, "CoreResult"]


def run_steps(steps: CycleSteps,
              hook: Optional[CoreFaultHook]) -> "CoreResult":
    """Drive *steps* to its result, answering every cycle from *hook*.

    A loop started unstepped never yields, so it finishes in the first
    ``next`` and *hook* may be ``None``.
    """
    try:
        cycle = next(steps)
        stall_cycle = hook.stall_cycle
        while True:
            cycle = steps.send(stall_cycle(cycle))
    except StopIteration as stop:
        return stop.value


def check_cycle_budget(cycle: int, max_cycles: Optional[int], *,
                       workload: str, retired: int, total: int) -> None:
    """Watchdog guard for core run loops.

    Raises :class:`~repro.isa.errors.RunTimeout` once *cycle* reaches
    the optional *max_cycles* budget.  Cores call this every cycle when
    a budget is armed (the resilient runner sets one; default off).
    """
    if max_cycles is not None and cycle >= max_cycles:
        raise RunTimeout(
            f"run exceeded its cycle budget with "
            f"{retired}/{total} instructions retired",
            invariant="cycle-budget", workload=workload,
            observed=cycle, expected=max_cycles)


def check_run_completed(retired: int, total: int, cycle: int,
                        max_cycles: Optional[int], *,
                        workload: str) -> None:
    """Post-loop watchdog: a budgeted run must retire the whole trace.

    Covers the case where the core's internal safety stop fires before
    the armed ``max_cycles`` budget — still a hang, still a timeout.
    """
    if max_cycles is not None and retired < total:
        raise RunTimeout(
            f"run stopped after {cycle} cycles with only "
            f"{retired}/{total} instructions retired",
            invariant="run-completion", workload=workload,
            observed=retired, expected=total)


@dataclass(frozen=True)
class RocketConfig:
    """Rocket core parameters (Table IV column 1)."""

    name: str = "Rocket"
    fetch_width: int = 2
    ibuf_entries: int = 4
    bht_entries: int = 512
    btb_entries: int = 28
    l1d: CacheConfig = L1D_32K
    # Redirect latency after a mispredict (recovery length, cycles).
    redirect_latency: int = 3
    core: str = "rocket"

    @property
    def commit_width(self) -> int:
        return 1


@dataclass(frozen=True)
class BoomConfig:
    """BOOM core parameters (Table IV columns 2-6)."""

    name: str
    fetch_width: int
    decode_width: int            # also the commit width W_C
    rob_entries: int
    iq_int: int
    iq_mem: int
    iq_fp: int
    ldq_entries: int
    stq_entries: int
    mshrs: int
    issue_int: int               # issue ports per queue; sum = W_I
    issue_mem: int
    issue_fp: int
    fetch_buffer_entries: int = 0   # 0 -> 2 x fetch_width
    btb_entries: int = 512
    l1d: CacheConfig = L1D_32K
    # Flush-to-first-valid-fetch latency.  The Recovering window opens
    # the cycle after the flush, so 5 yields the dominant 4-cycle
    # Recovering sequence of Fig. 8b (and the model's M_rl = 4).
    redirect_latency: int = 5
    # Next-line I$ prefetch (BOOM's frontend prefetcher); the ablation
    # bench switches it off to expose straight-line fetch latency.
    icache_prefetch: bool = True
    # Direction predictor: "tage" (Table IV), "gshare", or "bimodal";
    # the predictor-sensitivity ablation sweeps this.
    branch_predictor: str = "tage"
    # Optional stride data prefetcher on the L1D (off by default to
    # match Table IV; the prefetch ablation switches it on).
    dcache_prefetch: bool = False
    core: str = "boom"

    @property
    def commit_width(self) -> int:
        return self.decode_width

    @property
    def issue_width(self) -> int:
        """Total issue width W_I."""
        return self.issue_int + self.issue_mem + self.issue_fp

    @property
    def fetch_buffer_size(self) -> int:
        return self.fetch_buffer_entries or 2 * self.fetch_width


@dataclass
class CoreResult:
    """Everything a core run produces.

    ``events`` holds total *slot* counts per event (summed over lanes and
    cycles); ``lane_events`` holds the per-lane totals used by the
    per-lane study (Table V).
    """

    workload: str
    config_name: str
    core: str
    cycles: int
    instret: int
    events: Dict[str, int]
    lane_events: Dict[str, List[int]]
    commit_width: int
    issue_width: int
    l1i_stats: CacheStats
    l1d_stats: CacheStats
    l2_stats: CacheStats
    predictor_stats: PredictorStats
    extra: Dict[str, float] = field(default_factory=dict)
    #: True when the result was *extrapolated* from periodic sample
    #: windows (``repro.cores.windowed`` sampled mode) rather than a
    #: full simulation — it must never masquerade as exact.
    sampled: bool = False
    #: Windowed-run metadata (window count, warmup, spans, per-window
    #: wall times, sampled error bars); ``None`` for plain runs.  The
    #: dict is JSON-able so it rides result serialization unchanged.
    windowed: Optional[Dict[str, object]] = None

    @property
    def ipc(self) -> float:
        return self.instret / self.cycles if self.cycles else 0.0

    def event(self, name: str) -> int:
        """Total slot count of *name* (0 when never asserted)."""
        return self.events.get(name, 0)

    def lanes(self, name: str) -> List[int]:
        """Per-lane totals of *name* ([] when never asserted)."""
        return self.lane_events.get(name, [])
