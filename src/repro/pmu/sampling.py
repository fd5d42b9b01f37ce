"""Single-run counter multiplexing (time-division sampling).

Proprietary processors amortize the cost of scarce counters by
time-multiplexing event sets within one run and scaling the counts back
up (§I cites the resulting non-determinism as an accepted trade-off).
The deterministic simulator makes this a measurable design point: the
:class:`MultiplexedCsrFile` rotates counter groups every ``interval``
cycles, tracks each group's active-cycle share, and extrapolates —
exactly what ``perf`` does when events exceed hardware counters.

Because the reproduction can also measure the *exact* values (one event
per counter across multiple deterministic passes), the sampling error is
directly quantifiable; the ``ext.sampling-*`` claims
(:mod:`repro.tools.claims`) sweep the rotation interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..cores.base import SignalStream
from ..workloads import build_trace
from .events import events_for_core
from .harness import CoreConfig, make_core


class MultiplexedCsrFile:
    """Rotates event groups through one physical counter.

    Each group of events gets a time slice of ``interval`` cycles in
    round-robin order.  At the end of the run, every event's raw count
    is scaled by (total cycles / cycles its group was active).
    """

    def __init__(self, core: str, groups: Sequence[Sequence[str]],
                 interval: int = 1000,
                 increment_mode: str = "adders") -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if not groups:
            raise ValueError("at least one event group required")
        registry = events_for_core(core)
        for group in groups:
            for name in group:
                if name not in registry:
                    raise ValueError(f"unknown event {name!r}")
        self.core = core
        self.groups = [list(group) for group in groups]
        self.interval = interval
        self.increment_mode = increment_mode
        self._raw: Dict[str, int] = {name: 0 for group in groups
                                     for name in group}
        self._active_cycles: List[int] = [0] * len(groups)
        self.total_cycles = 0

    def count(self, stream: SignalStream) -> None:
        """Count a recorded run, one time slice of it per group."""
        classic = self.increment_mode == "classic"
        for first, cycles, signals in stream.runs(self.interval):
            self.total_cycles += cycles
            index = (first // self.interval) % len(self.groups)
            self._active_cycles[index] += cycles
            for name in self.groups[index]:
                mask = signals.get(name, 0)
                self._raw[name] += cycles * (
                    min(mask, 1) if classic else mask.bit_count())

    def raw_count(self, name: str) -> int:
        return self._raw[name]

    def _group_cycles(self, name: str) -> int:
        """Cycles the (first) group holding *name* was counted."""
        for index, group in enumerate(self.groups):
            if name in group:
                return self._active_cycles[index]
        raise KeyError(name)

    def estimated_count(self, name: str) -> float:
        """Scale the sampled count to the whole run (perf-style)."""
        active = self._group_cycles(name)
        return self._raw[name] * self.total_cycles / active if active else 0.0

    def coverage(self, name: str) -> float:
        """Fraction of cycles the event's group was being counted."""
        active = self._group_cycles(name)
        return active / self.total_cycles if self.total_cycles else 0.0


@dataclass
class SamplingComparison:
    """Exact vs sampled counts for one event."""

    event: str
    exact: int
    estimated: float
    coverage: float

    @property
    def relative_error(self) -> float:
        if self.exact == 0:
            return 0.0 if self.estimated == 0 else float("inf")
        return (self.estimated - self.exact) / self.exact


def measure_sampled(workload: str, config: CoreConfig,
                    groups: Sequence[Sequence[str]],
                    interval: int = 1000,
                    scale: float = 1.0) -> List[SamplingComparison]:
    """One run with multiplexed counters, compared against ground truth.

    The exact counts come from the core's own accumulation in the same
    run (the simulator equivalent of a second fully-instrumented pass).
    """
    trace = build_trace(workload, scale=scale)
    core_model = make_core(config)
    mux = MultiplexedCsrFile(config.core, groups, interval=interval)
    stream = SignalStream()
    result = core_model.run(trace, stream=stream)
    mux.count(stream)
    comparisons = []
    for group in groups:
        for event in group:
            comparisons.append(SamplingComparison(
                event=event,
                exact=result.event(event),
                estimated=mux.estimated_count(event),
                coverage=mux.coverage(event)))
    return comparisons
