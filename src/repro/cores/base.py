"""Common core-model infrastructure: configs, signals, results, streams.

Signal convention
-----------------

Each cycle a core produces a mapping ``{event_name: lane_bitmask}`` where
bit *i* of the mask is the boolean signal of event source *i* in that
cycle (single-source events use bit 0).  This is exactly the wire-level
view the PMU counter architectures (Fig. 6) and the TracerV-style tracer
(§IV-C) tap.

Each core has one cycle loop, which accumulates the core's own event
totals in place and jumps over quiet stretches.  A run given a
:class:`SignalStream` also records each cycle's signals there, for the
counter architectures, the cycle tracer and AutoCounter to count after
the run.  The loop is a coroutine (:data:`CycleSteps`) that runs up to
a bound the multicore lockstep sends it; a run alone is sent
:data:`UNBOUNDED`.  Each
cycle tests one bound: the watchdog, the next window a
:class:`CoreFaultHook` freezes, or the lockstep bound, whichever comes
first.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from struct import Struct
from typing import (Callable, Dict, Generator, Iterable, Iterator, List,
                    Mapping, Optional, Protocol, Sequence, Tuple)

from ..isa.errors import RunTimeout
from ..uarch.branch import PredictorStats
from ..uarch.cache import CacheConfig, CacheStats, L1D_32K


class CoreFaultHook(Protocol):
    """Injection point the fault injector uses to freeze a core.

    A frozen cycle passes with no fetch, issue or commit and no signals
    (a hung memory system / clock-gated core).  Combined with the
    ``max_cycles`` watchdog this models, and detects, runaway runs.
    """

    def stall_window(self, cycle: int,
                     end: int) -> Optional[Tuple[int, int]]:
        """The first frozen window ``[start, stop)`` with ``stop > cycle``,
        or ``None``.

        The loop asks at its first cycle and again each time it reaches
        the start it was given.  A window holding *cycle* is frozen now,
        from *cycle* up to the earlier of ``stop`` and *end* (where the
        watchdog or the safety stop ends the run), so a hook counts its
        frozen cycles here.  A later window only bounds the loop's
        fast-forward until it gets there.
        """
        ...  # pragma: no cover - protocol


def stall_from(hook: Optional[CoreFaultHook], cycle: int,
               end: int) -> Tuple[int, int]:
    """``(resume, start)`` for a loop at *cycle*: the cycle it resumes at
    after the windows *hook* freezes from there on, and the start of
    the next window (*end* when none starts before it)."""
    while hook is not None and cycle < end:
        window = hook.stall_window(cycle, end)
        if window is None:
            break
        start, stop = window
        if start > cycle:
            return cycle, min(start, end)
        cycle = min(stop, end)
    return cycle, end


#: The bound of a core that runs alone: it never hands off.
UNBOUNDED = 1 << 62

#: A core's cycle loop as a coroutine.  Set up, it yields its first
#: cycle; sent a bound, it runs every cycle before the bound, skipping
#: quiet stretches, and yields the first cycle it reaches at or past
#: it.  It returns the run's :class:`CoreResult`.
CycleSteps = Generator[int, int, "CoreResult"]


def run_steps(steps: CycleSteps) -> "CoreResult":
    """Run *steps* alone to its result."""
    try:
        next(steps)
        steps.send(UNBOUNDED)
    except StopIteration as stop:
        return stop.value
    raise RuntimeError("a core run alone yielded before its end")


def check_cycle_budget(cycle: int, max_cycles: Optional[int], *,
                       workload: str, retired: int, total: int) -> None:
    """Watchdog guard for core run loops.

    Raises :class:`~repro.isa.errors.RunTimeout` once *cycle* reaches
    the optional *max_cycles* budget.  Cores call this whenever a cycle
    reaches their next bound, which is never past the budget (the
    resilient runner arms one; default off).
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


class SignalStream:
    """One run's per-cycle signals, recorded as run-length records, and
    the reductions the counters, the tracer and AutoCounter share.

    Record *i* holds ``length[i]`` consecutive cycles from ``first[i]``
    that each assert ``signals[pattern[i]]`` (``{event: lane_mask}``,
    zero masks left out).  A stretch the quiet-cycle fast-forward skips
    is one record; a stalled cycle is not recorded.  The caller owns the
    stream, so a run that raises ``RunTimeout`` keeps what it recorded.
    """

    def __init__(self) -> None:
        self.first = array("q")
        self.length = array("q")
        self.pattern = array("l")
        self.signals: List[Dict[str, int]] = []
        self.weights: List[int] = []   # recorded cycles per pattern
        self._patterns: Dict[tuple, int] = {}
        self._end = self._tail = -1
        # Recording state (see start and note).
        self._layout: Sequence[Tuple[str, int]] = ()
        self._tagged: Sequence[str] = ()
        self._last = 0
        self._keys: Dict[Tuple[int, int], int] = {}

    @classmethod
    def from_cycles(cls, cycles: Iterable[Tuple[int, Mapping[str, int]]]
                    ) -> "SignalStream":
        """A stream of explicit ``(cycle, signals)`` pairs in cycle order."""
        stream = cls()
        for cycle, signals in cycles:
            stream._append(cycle, 1, stream._intern(signals))
        return stream

    def start(self, layout: Sequence[Tuple[str, int]],
              tagged: Sequence[str]) -> Callable[..., None]:
        """Record a run of a core whose zeroed counters each assert
        ``(event, lane mask)`` of *layout* when they move; returns note."""
        if self._layout or self.signals:
            raise ValueError("a SignalStream records one run")
        self._layout = layout
        self._tagged = tagged
        self._pack = Struct(f"<{len(layout)}q").pack
        return self.note

    def note(self, first: int, count: int, tag: int,
             counters: Iterable[int]) -> None:
        """Record *count* cycles from *first*, each asserting what the
        *counters* that moved (by *count*) since the last note assert,
        plus lanes ``0..tag-1`` of every *tagged* event.  Packed 64 bits
        apiece, one subtraction gives every counter's per-cycle step."""
        now = int.from_bytes(self._pack(*counters), "little")
        step = now - self._last
        self._last = now
        if count > 1:
            step //= count
        pattern = self._keys.get((tag, step))
        if pattern is None:
            signals = dict.fromkeys(self._tagged, (1 << tag) - 1)
            signals["cycles"] = 1
            for index, (event, mask) in enumerate(self._layout):
                if step >> 64 * index & 0xFFFFFFFFFFFFFFFF:
                    signals[event] = signals.get(event, 0) | mask
            pattern = self._keys[tag, step] = self._intern(signals)
        self._append(first, count, pattern)

    def _intern(self, signals: Mapping[str, int]) -> int:
        asserted = {name: mask for name, mask in signals.items() if mask}
        key = tuple(sorted(asserted.items()))
        if key not in self._patterns:
            self._patterns[key] = len(self.signals)
            self.signals.append(asserted)
            self.weights.append(0)
        return self._patterns[key]

    def _append(self, first: int, count: int, pattern: int) -> None:
        if first == self._end and pattern == self._tail:
            self.length[-1] += count
        else:
            self.first.append(first)
            self.length.append(count)
            self.pattern.append(pattern)
            self._tail = pattern
        self._end = first + count
        self.weights[pattern] += count

    def __len__(self) -> int:
        return sum(self.weights)

    def runs(self, interval: Optional[int] = None
             ) -> Iterator[Tuple[int, int, Dict[str, int]]]:
        """``(first, cycles, signals)`` per record, cut at *interval*s."""
        for first, length, pattern in zip(self.first, self.length,
                                          self.pattern):
            end = first + length
            while first < end:
                cut = end if interval is None else \
                    min(end, (first // interval + 1) * interval)
                yield first, cut - first, self.signals[pattern]
                first = cut

    def cycles(self) -> Iterator[Tuple[int, Dict[str, int]]]:
        for first, length, signals in self.runs():
            for cycle in range(first, first + length):
                yield cycle, signals

    def popcount(self, names: Sequence[str]) -> int:
        """Asserted lanes of the named events over every cycle (adders)."""
        return sum(sum(self.lanes(name)) for name in names)

    def active(self, names: Sequence[str]) -> int:
        """Cycles in which any named event is asserted (the Fig. 1 OR)."""
        return sum(weight
                   for weight, signals in zip(self.weights, self.signals)
                   if any(signals.get(name, 0) for name in names))

    def lanes(self, name: str) -> List[int]:
        """Cycles in which each lane of *name* is asserted."""
        counts: List[int] = []
        for weight, signals in zip(self.weights, self.signals):
            mask = signals.get(name, 0)
            counts += [0] * (mask.bit_length() - len(counts))
            for lane in range(mask.bit_length()):
                counts[lane] += weight * (mask >> lane & 1)
        return counts

    def masks(self, names: Sequence[str]) -> Iterator[Tuple[int, int]]:
        """``(mask, cycles)`` in cycle order: the named events' lane masks
        ORed per cycle, consecutive cycles of one mask merged."""
        combined = [0] * len(self.signals)
        for pattern, signals in enumerate(self.signals):
            for name in names:
                combined[pattern] |= signals.get(name, 0)
        for mask, runs in groupby(zip(map(combined.__getitem__, self.pattern),
                                      self.length), itemgetter(0)):
            yield mask, sum(map(itemgetter(1), runs))
