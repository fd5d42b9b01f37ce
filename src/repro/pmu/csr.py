"""CSR-file model: the software-visible face of the PMU (§IV-D).

Matches the privileged-spec layout the harness programs: ``mcycle`` /
``minstret`` plus 29 programmable ``mhpmcounter3..31`` (31 counters
total, as in Table IV), each with an ``mhpmevent`` selector holding an
8-bit event-set ID and a 56-bit event mask, gated by ``mcountinhibit``.

The increment logic behind each programmable counter is pluggable with
the counter architectures of :mod:`repro.pmu.counters`:

- ``classic`` — the Fig. 1 OR behaviour (+1 per cycle at most),
- ``adders`` — multi-bit increment (exact popcount across mapped events),
- ``distributed`` — local counters + rotating arbiter per counter, whose
  software read needs the ×2^N post-processing.

:meth:`CsrFile.count` counts a recorded
:class:`~repro.cores.base.SignalStream` as the counters would step
cycle by cycle.  ``adders`` readings are exact popcounts, so
:meth:`CsrFile.credit` adds a finished run's totals instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..cores.base import SignalStream
from ..isa.csrs import (FIRST_HPM_INDEX, LAST_HPM_INDEX, MCOUNTINHIBIT,
                        MCYCLE, MINSTRET, mhpmcounter_addr, mhpmevent_addr)
from .counters import _DistributedEventState, _validate_event_set
from .events import Event, decode_selector

if TYPE_CHECKING:
    from ..cores.base import CoreResult

#: Inhibit-register bit positions: bit 0 = mcycle, bit 2 = minstret,
#: bits 3..31 = the programmable counters (bit 1 is reserved, as in the
#: privileged spec).
_CYCLE_BIT = 0
_INSTRET_BIT = 2

INCREMENT_MODES = ("classic", "adders", "distributed")


class _ProgrammableCounter:
    """One mhpmcounter with its selector and increment logic."""

    def __init__(self, index: int, mode: str) -> None:
        self.index = index
        self.mode = mode
        self.selector = 0
        self.events: List[Event] = []
        self.value = 0
        self._distributed: Optional[_DistributedEventState] = None

    def program(self, selector: int, core: str) -> None:
        self.selector = selector
        if selector == 0:
            self.events = []
            return
        _, events = decode_selector(selector, core)
        _validate_event_set(events, f"mhpmcounter{self.index}")
        self.events = events
        self.value = 0
        self._distributed = None

    def count(self, stream: SignalStream) -> None:
        """Every cycle of *stream* through this counter's increment logic."""
        names = [event.name for event in self.events]
        if self.mode == "classic":
            # Fig. 1 OR: +1 when any mapped event fires this cycle.
            self.value += stream.active(names)
        elif self.mode == "adders":
            # The adder chain sums every source wire of every mapped
            # event (narrower ones zero-padded, §IV-B): a popcount.
            self.value += stream.popcount(names)
        else:
            # Mapped events share the per-source local counters, so
            # their lane masks OR together before counting.  With one
            # source, only how many cycles it fires matters.
            runs = stream.masks(names)
            if len(stream) and max(map(len, map(stream.lanes, names))) <= 1 \
                    and getattr(self._distributed, "sources", 1) == 1:
                runs = [(1, stream.active(names))]
            for combined, cycles in runs:
                state = self._distributed
                if state is None or combined.bit_length() > state.sources:
                    fresh = _DistributedEventState(
                        max(1, combined.bit_length()))
                    if state is not None:
                        carried = (state.principal * state.wrap
                                   + sum(state.locals_))
                        fresh.principal = carried // fresh.wrap
                        fresh.locals_[0] = carried % fresh.wrap
                    self._distributed = state = fresh
                state.run(combined, cycles)
                self.value = state.principal

    def corrected_value(self) -> int:
        """Post-processed value (the artifact's counter comparison)."""
        if self.mode == "distributed" and self._distributed is not None:
            return self.value * self._distributed.wrap
        return self.value

    def drain(self) -> None:
        if self._distributed is not None:
            self._distributed.run(0, self._distributed.sources)
            self.value = self._distributed.principal


class CsrFile:
    """The machine-mode counter CSRs plus inhibit/selector state."""

    def __init__(self, core: str = "boom",
                 increment_mode: str = "adders",
                 fault_injector=None) -> None:
        if increment_mode not in INCREMENT_MODES:
            raise ValueError(
                f"unknown increment mode {increment_mode!r}; "
                f"choose from {INCREMENT_MODES}")
        self.core = core
        self.increment_mode = increment_mode
        #: Optional :class:`repro.chaos.model.FaultInjector`-style
        #: hook.  ``on_signals`` may perturb each cycle's lane masks
        #: before they reach the counters (dropped increments);
        #: ``on_counter_read`` may perturb values at read time
        #: (bit-flips).  ``None`` (the default) is the healthy PMU.
        self.fault_injector = fault_injector
        self.mcycle = 0
        self.minstret = 0
        # All counters start inhibited; step (4) of the harness clears
        # the bits to start counting (§IV-D).
        self.mcountinhibit = (1 << 32) - 1
        self.counters: Dict[int, _ProgrammableCounter] = {
            index: _ProgrammableCounter(index, increment_mode)
            for index in range(FIRST_HPM_INDEX, LAST_HPM_INDEX + 1)}
        self._selector_at = {mhpmevent_addr(index): counter
                             for index, counter in self.counters.items()}
        self._counter_at = {mhpmcounter_addr(index): counter
                            for index, counter in self.counters.items()}
        #: Programmed, uninhibited counters in index order: the only
        #: ones a counted or credited run can move.  Rebuilt on every
        #: selector or ``mcountinhibit`` write.
        self._active: List[_ProgrammableCounter] = []
        self.enabled = False

    # ------------------------------------------------------------------
    # software interface (CSR reads/writes by address)
    # ------------------------------------------------------------------

    def write(self, addr: int, value: int) -> None:
        if addr == MCOUNTINHIBIT:
            self.mcountinhibit = value
            self._rebuild_active()
            return
        if addr == MCYCLE:
            self.mcycle = value
            return
        if addr == MINSTRET:
            self.minstret = value
            return
        counter = self._selector_at.get(addr)
        if counter is not None:
            counter.program(value, self.core)
            self._rebuild_active()
            return
        counter = self._counter_at.get(addr)
        if counter is not None:
            counter.value = value
        # Unknown CSRs are ignored (WARL behaviour).

    def read(self, addr: int) -> int:
        if addr == MCOUNTINHIBIT:
            return self.mcountinhibit
        if addr == MCYCLE:
            return self.mcycle
        if addr == MINSTRET:
            return self.minstret
        counter = self._selector_at.get(addr)
        if counter is not None:
            return counter.selector
        counter = self._counter_at.get(addr)
        if counter is not None:
            # Raw: distributed values still need the ×2^N scaling.
            return counter.value
        return 0

    def _rebuild_active(self) -> None:
        self._active = [counter for index, counter in self.counters.items()
                        if counter.events and not self.inhibited(index)]

    def inhibited(self, bit: int) -> bool:
        return bool((self.mcountinhibit >> bit) & 1)

    # ------------------------------------------------------------------
    # hardware interface
    # ------------------------------------------------------------------

    def count(self, stream: SignalStream) -> None:
        """Count a recorded run as the hardware counts it, cycle by
        cycle, through the fault injector's ``on_signals`` if any."""
        injector = self.fault_injector
        if injector is not None:
            stream = SignalStream.from_cycles(
                (cycle, injector.on_signals(cycle, signals))
                for cycle, signals in stream.cycles())
        if not self.inhibited(_CYCLE_BIT):
            self.mcycle += len(stream)
        if not self.inhibited(_INSTRET_BIT):
            self.minstret += stream.popcount(("instr_retired",))
        for counter in self._active:
            counter.count(stream)

    def credit(self, result: "CoreResult") -> None:
        """Count a finished run from its totals, with no stream.

        Exact for the ``adders`` architecture: a counter's per-cycle
        increment is the popcount of its events' lane masks, so its
        reading over a run is the sum of those events' totals, and
        ``mcycle``/``minstret`` are the run's cycle and retire counts.
        Selectors and inhibit bits apply as in :meth:`count`.  Refused
        for the other architectures and under a fault injector, whose
        readings are not a function of the totals.
        """
        if self.increment_mode != "adders" or self.fault_injector is not None:
            raise ValueError(
                "credit() is exact only for fault-free adders counters")
        if not self.inhibited(_CYCLE_BIT):
            self.mcycle += result.cycles
        if not self.inhibited(_INSTRET_BIT):
            self.minstret += result.instret
        for counter in self._active:
            counter.value += sum(result.event(event.name)
                                 for event in counter.events)

    # ------------------------------------------------------------------
    # convenience used by the harness
    # ------------------------------------------------------------------

    def counter_for(self, index: int) -> _ProgrammableCounter:
        return self.counters[index]

    def corrected_value_for(self, index: int) -> int:
        """Post-processed read of one counter, through the fault hook."""
        value = self.counters[index].corrected_value()
        if self.fault_injector is not None:
            value = self.fault_injector.on_counter_read(index, value)
        return value

    def corrected_values(self) -> Dict[int, int]:
        """Post-processed values of all programmed counters."""
        return {index: counter.corrected_value()
                for index, counter in self.counters.items()
                if counter.events}

    def drain(self) -> None:
        """End-of-run arbiter drain for the distributed architecture."""
        for counter in self.counters.values():
            counter.drain()
