"""Behavioural models of the three PMU counter architectures (Fig. 6).

The paper's problem: wide cores assert the *same* event on several
sources (lanes) in one cycle, but a classic Rocket-style counter can only
increment by one.  Icicle evaluates three implementations:

- :class:`ScalarCounterBank` — the naïve scheme: one hardware counter per
  event *source*.  Exact, but burns one of the 31 counters per lane.
- :class:`AddWiresCounterBank` — Fig. 6a: local adders aggregate the
  per-source wires into one multi-bit increment per counter.  Exact and
  counter-frugal, but the sequential adder chain grows with the number of
  sources (the Fig. 9b delay scaling).
- :class:`DistributedCounterBank` — Fig. 6b: an N-bit local counter at
  each source sets an overflow flag every 2^N events; a rotating one-hot
  arbiter drains one flag per cycle into the principal counter.  All
  wires stay one bit wide, but software must post-process the value
  (``principal * 2^N``) and the architecture *undercounts* by whatever is
  left in the local counters — bounded by ``sources * (2^N - 1)`` after a
  drain, the §IV-B bound.

There is also :class:`ClassicOrCounter`, the pre-Icicle behaviour of
Fig. 1 (mapped events OR together; at most +1 per cycle), kept as the
baseline the paper argues is insufficient for wide pipelines.

Every bank counts a recorded :class:`~repro.cores.base.SignalStream`
(``bank.count(stream)``) as it would count cycle by cycle.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

from ..cores.base import SignalStream
from .events import Event, events_for_core


def _validate_event_set(events: Sequence[Event], spec_name: str) -> None:
    sets = {event.event_set for event in events}
    if len(sets) > 1:
        raise ValueError(
            f"counter {spec_name!r} mixes event sets {sorted(sets)}; "
            "hardware only multiplexes events within one set (§II-A)")


class _BankBase:
    """Shared bookkeeping: resolve event names, track lane widths."""

    def __init__(self, core: str, event_names: Sequence[str]) -> None:
        registry = events_for_core(core)
        self.core = core
        self.event_names = list(event_names)
        self.events: Dict[str, Event] = {}
        for name in event_names:
            if name not in registry:
                raise ValueError(f"unknown event {name!r} for core {core}")
            self.events[name] = registry[name]
        #: Highest lane index seen per event (sources discovered online).
        self.sources_seen: Dict[str, int] = {name: 1 for name in event_names}

    def _note_widths(self, stream: SignalStream) -> None:
        for name in self.event_names:
            width = len(stream.lanes(name))
            if width > self.sources_seen[name]:
                self.sources_seen[name] = width


class ScalarCounterBank(_BankBase):
    """One counter per event source: the exact (and expensive) baseline."""

    def __init__(self, core: str, event_names: Sequence[str],
                 max_lanes: int = 16) -> None:
        super().__init__(core, event_names)
        self.max_lanes = max_lanes
        self._lanes: Dict[str, List[int]] = {
            name: [0] * max_lanes for name in event_names}

    def count(self, stream: SignalStream) -> None:
        self._note_widths(stream)
        for name in self.event_names:
            lanes = self._lanes[name]
            for lane, cycles in enumerate(stream.lanes(name)):
                lanes[lane] += cycles

    def read_lane(self, name: str, lane: int) -> int:
        """Value of the dedicated counter for (event, source lane)."""
        return self._lanes[name][lane]

    def read_event(self, name: str) -> int:
        """Total slots across all of the event's source counters."""
        return sum(self._lanes[name])

    def counters_used(self) -> int:
        """Number of hardware counters this scheme occupies."""
        return sum(self.sources_seen[name] for name in self.event_names)


class AddWiresCounterBank(_BankBase):
    """Fig. 6a: per-event adder chain feeding a multi-bit increment."""

    def __init__(self, core: str, event_names: Sequence[str]) -> None:
        super().__init__(core, event_names)
        self._values: Dict[str, int] = {name: 0 for name in event_names}

    def count(self, stream: SignalStream) -> None:
        self._note_widths(stream)
        for name in self.event_names:
            # The adder chain sums the per-source wires; behaviourally
            # this is an exact popcount increment.
            self._values[name] += stream.popcount((name,))

    def read_event(self, name: str) -> int:
        return self._values[name]

    def increment_width(self, name: str) -> int:
        """Bits of the increment bus (pad target when sharing counters)."""
        return max(1, math.ceil(math.log2(self.sources_seen[name] + 1)))

    def adder_chain_length(self, name: str) -> int:
        """Sequential adders between the farthest source and the counter."""
        return max(0, self.sources_seen[name] - 1)

    def counters_used(self) -> int:
        return len(self.event_names)


class _DistributedEventState:
    """Local counters + overflow flags + rotating arbiter for one event."""

    __slots__ = ("sources", "width", "locals_", "overflow", "pointer",
                 "principal")

    def __init__(self, sources: int) -> None:
        self.sources = max(1, sources)
        # Local counters must hold at least one arbiter round of events.
        self.width = max(1, math.ceil(math.log2(self.sources)))
        self.locals_ = [0] * self.sources
        self.overflow = [False] * self.sources
        self.pointer = 0
        self.principal = 0

    @property
    def wrap(self) -> int:
        return 1 << self.width

    def step(self, mask: int) -> None:
        """One cycle: count events, then arbitrate one overflow flag."""
        if mask:
            bit = 0
            while mask:
                if mask & 1:
                    value = self.locals_[bit] + 1
                    if value >= self.wrap:
                        self.locals_[bit] = 0
                        self.overflow[bit] = True
                    else:
                        self.locals_[bit] = value
                mask >>= 1
                bit += 1
        # Rotating one-hot select: examine one source per cycle; a set
        # flag increments the principal counter and clears (read-clear).
        sel = self.pointer
        if self.overflow[sel]:
            self.principal += 1
            self.overflow[sel] = False
        self.pointer = (sel + 1) % self.sources

    def run(self, mask: int, cycles: int) -> None:
        """*cycles* steps of one *mask*, in closed form where exact."""
        if self.sources == 1 and not self.overflow[0]:
            # The arbiter examines the one source every cycle, so each
            # overflow drains the cycle it is flagged.
            total = self.locals_[0] + (cycles if mask else 0)
            self.principal += total // self.wrap
            self.locals_[0] = total % self.wrap
        elif not mask and cycles >= self.sources:
            # One full rotation with no events drains every flag.
            self.principal += self.overflow.count(True)
            self.overflow = [False] * self.sources
            self.pointer = (self.pointer + cycles) % self.sources
        else:
            for _ in range(cycles):
                self.step(mask)


class DistributedCounterBank(_BankBase):
    """Fig. 6b: local per-source counters + rotating one-hot arbiter.

    ``read_event`` applies the software post-processing the artifact
    appendix describes (``principal * 2^N``); ``undercount`` exposes the
    residue for accuracy studies, and ``drain`` models the end-of-run
    arbiter rounds that collect still-pending overflow flags.
    """

    def __init__(self, core: str, event_names: Sequence[str],
                 sources: Optional[Mapping[str, int]] = None) -> None:
        super().__init__(core, event_names)
        self._states: Dict[str, _DistributedEventState] = {}
        self._fixed_sources = dict(sources or {})

    def _state(self, name: str, mask: int) -> _DistributedEventState:
        state = self._states.get(name)
        width = self._fixed_sources.get(name, 0) or mask.bit_length() or 1
        if state is None:
            state = _DistributedEventState(width)
            self._states[name] = state
        elif width > state.sources:
            # A wider mask than anticipated: grow the structure, keeping
            # existing counts (models re-synthesis with more sources).
            grown = _DistributedEventState(width)
            grown.locals_[:state.sources] = state.locals_
            grown.overflow[:state.sources] = state.overflow
            carried = state.principal * state.wrap
            grown.principal = carried // grown.wrap
            extra = carried % grown.wrap + grown.locals_[0]
            grown.locals_[0] = extra % grown.wrap
            if extra >= grown.wrap:
                grown.overflow[0] = True
            self._states[name] = grown
            state = grown
        return state

    def count(self, stream: SignalStream) -> None:
        self._note_widths(stream)
        for name in self.event_names:
            for mask, cycles in stream.masks((name,)):
                if mask or name in self._states:
                    self._state(name, mask).run(mask, cycles)

    def drain(self) -> None:
        """Run one full arbiter rotation with no new events.

        This collects every pending overflow flag, so the remaining
        undercount is only what sits in the local counters — the
        ``sources * (2^N - 1)`` bound of §IV-B.
        """
        for state in self._states.values():
            state.run(0, state.sources)

    def read_event(self, name: str) -> int:
        """Software-visible value after ×2^N post-processing."""
        state = self._states.get(name)
        if state is None:
            return 0
        return state.principal * state.wrap

    def exact_event(self, name: str) -> int:
        """The true count (principal + flags + local residues)."""
        state = self._states.get(name)
        if state is None:
            return 0
        pending = sum(state.wrap for flag in state.overflow if flag)
        return (state.principal * state.wrap + pending
                + sum(state.locals_))

    def undercount(self, name: str) -> int:
        """How much the software-visible value undercounts right now."""
        return self.exact_event(name) - self.read_event(name)

    def undercount_bound(self, name: str) -> int:
        """Worst-case undercount after a drain (§IV-B)."""
        state = self._states.get(name)
        if state is None:
            return 0
        return state.sources * (state.wrap - 1)

    def counters_used(self) -> int:
        return len(self.event_names)


class ClassicOrCounter(_BankBase):
    """Pre-Icicle Fig. 1 behaviour: OR of mapped events, +1 per cycle.

    Two mapped events (or two lanes of one event) asserting in the same
    cycle still increment by one — the undercount that motivates the new
    architectures (§II-A, emphasised in the paper in italics).
    """

    def __init__(self, core: str, event_names: Sequence[str],
                 name: str = "counter") -> None:
        super().__init__(core, event_names)
        registry = events_for_core(core)
        _validate_event_set([registry[n] for n in event_names], name)
        self.name = name
        self.value = 0

    def count(self, stream: SignalStream) -> None:
        self.value += stream.active(self.event_names)

    def read(self) -> int:
        return self.value


#: Registry of architecture names used by the harness/benches.
COUNTER_ARCHITECTURES = ("scalar", "adders", "distributed")


def make_counter_bank(architecture: str, core: str,
                      event_names: Sequence[str]):
    """Factory: build a counter bank of the requested architecture."""
    if architecture == "scalar":
        return ScalarCounterBank(core, event_names)
    if architecture == "adders":
        return AddWiresCounterBank(core, event_names)
    if architecture == "distributed":
        return DistributedCounterBank(core, event_names)
    raise ValueError(
        f"unknown counter architecture {architecture!r}; "
        f"choose from {COUNTER_ARCHITECTURES}")
