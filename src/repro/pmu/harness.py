"""Perf-like software harness (§IV-D).

The harness programs counters in the paper's four steps: (1) enable the
counter CSRs, (2) write the 8-bit event-set ID into each counter's
control register, (3) set the 56-bit event mask, and (4) clear the
inhibit bits so counting starts.

Two modes mirror the paper:

- ``baremetal`` — the harness pokes the CSR file directly, as a
  bare-metal payload would with ``csrw`` instructions.
- ``linux`` — all four steps need M-mode, so they are emitted as an
  OpenSBI-style boot sequence: real ``csrw``/``li`` instructions that are
  assembled, functionally executed, and whose CSR side effects are then
  applied to the CSR file.  :meth:`PerfHarness.firemarshal_command`
  renders the one-command FireMarshal wrapper UX.

When a workload needs more events than the 29 programmable counters, the
harness multiplexes in passes, one counter set each.  The workload is
deterministic, so the core runs once and every pass counts that run:
fault-free ``adders`` counters from its totals
(:meth:`~repro.pmu.csr.CsrFile.credit`), the other architectures and
injected runs from its recorded stream
(:meth:`~repro.pmu.csr.CsrFile.count`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cores.base import BoomConfig, CoreResult, RocketConfig, SignalStream
from ..cores.batch import make_core
from ..isa import assemble, execute
from ..isa.csrs import (FIRST_HPM_INDEX, LAST_HPM_INDEX, MCOUNTINHIBIT,
                        mhpmcounter_addr, mhpmevent_addr)
from ..workloads import build_trace
from .csr import CsrFile, INCREMENT_MODES
from .events import encode_selector, events_for_core

NUM_PROGRAMMABLE = LAST_HPM_INDEX - FIRST_HPM_INDEX + 1

CoreConfig = Union[RocketConfig, BoomConfig]


@dataclass
class CounterAssignment:
    """One pass of counter programming: counter index -> event names."""

    slots: List[Tuple[int, List[str]]] = field(default_factory=list)

    def selectors(self, core: str) -> List[Tuple[int, int]]:
        return [(index, encode_selector(names, core))
                for index, names in self.slots]


@dataclass
class Measurement:
    """Counter values read back after a run (one workload, one config)."""

    workload: str
    config_name: str
    core: str
    events: Dict[str, int]
    cycles: int
    instret: int
    passes: int
    result: Optional[CoreResult] = None
    #: Counter architecture the values were read through; ``adders`` is
    #: an exact popcount, so readings must equal the core's own totals
    #: (the invariant checker relies on this).
    increment_mode: str = "adders"

    @property
    def ipc(self) -> float:
        return self.instret / self.cycles if self.cycles else 0.0


class PerfHarness:
    """Programs counters, runs workloads, reads TMA event values back."""

    def __init__(self, core: str = "boom", increment_mode: str = "adders",
                 mode: str = "baremetal", fault_injector=None) -> None:
        if mode not in ("baremetal", "linux"):
            raise ValueError(f"unknown mode {mode!r}")
        if increment_mode not in INCREMENT_MODES:
            raise ValueError(
                f"unknown increment mode {increment_mode!r}; "
                f"choose from {INCREMENT_MODES}")
        self.core = core
        self.increment_mode = increment_mode
        self.mode = mode
        #: Optional :class:`repro.chaos.model.FaultInjector`.
        #: When set, every run is perturbed through the injector's
        #: hooks (trace truncation, core stalls, counter corruption).
        self.fault_injector = fault_injector

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def plan(self, event_names: Sequence[str]) -> List[CounterAssignment]:
        """Split the requested events into per-pass counter assignments.

        Each event gets its own counter (the scalar/adders/distributed
        increment logic handles multi-source events internally); passes
        are added when more than 29 events are requested.
        """
        registry = events_for_core(self.core)
        for name in event_names:
            if name not in registry:
                raise ValueError(
                    f"unknown event {name!r} for core {self.core}")
        passes: List[CounterAssignment] = []
        current = CounterAssignment()
        counter = FIRST_HPM_INDEX
        for name in event_names:
            if counter > LAST_HPM_INDEX:
                passes.append(current)
                current = CounterAssignment()
                counter = FIRST_HPM_INDEX
            current.slots.append((counter, [name]))
            counter += 1
        if current.slots:
            passes.append(current)
        return passes

    # ------------------------------------------------------------------
    # the four-step setup
    # ------------------------------------------------------------------

    def setup(self, csr: CsrFile, assignment: CounterAssignment) -> None:
        """Program *csr* directly (baremetal path)."""
        # Step 1: enable the counter CSRs.
        csr.enabled = True
        for index, selector in assignment.selectors(self.core):
            # Steps 2+3: event-set ID (low byte) and event mask.
            csr.write(mhpmevent_addr(index), selector)
            csr.write(mhpmcounter_addr(index), 0)
        # Step 4: clear the inhibit bits; counting starts.
        csr.write(MCOUNTINHIBIT, 0)

    def boot_assembly(self, assignment: CounterAssignment) -> str:
        """OpenSBI-style M-mode CSR programming sequence (linux path)."""
        lines = [
            "# OpenSBI boot-time PMU setup (generated by PerfHarness)",
            ".text",
            "_start:",
            "    csrwi mcounteren, 7          # step 1: enable counters",
        ]
        for index, selector in assignment.selectors(self.core):
            lines.append(f"    li t0, {selector}")
            lines.append(
                f"    csrw mhpmevent{index}, t0    "
                f"# steps 2+3: set ID + event mask")
            lines.append(f"    csrw mhpmcounter{index}, zero")
        lines.append("    csrw mcountinhibit, zero     "
                     "# step 4: clear inhibit")
        lines.append("    li a7, 93")
        lines.append("    ecall")
        return "\n".join(lines) + "\n"

    def apply_boot_sequence(self, csr: CsrFile,
                            assignment: CounterAssignment) -> int:
        """Assemble + execute the boot sequence, applying its CSR writes.

        Returns the number of CSR writes that reached the CSR file — the
        linux path exercises the whole assembler/executor stack instead
        of poking the model directly.
        """
        program = assemble(self.boot_assembly(assignment),
                           name="opensbi-boot")
        trace = execute(program)
        writes = 0
        csr.enabled = True
        for inst in trace:
            if inst.csr >= 0 and inst.csr_write is not None:
                csr.write(inst.csr, inst.csr_write)
                writes += 1
        return writes

    def firemarshal_command(self, workload: str,
                            event_names: Sequence[str]) -> str:
        """The one-command FireMarshal wrapper UX the paper describes."""
        events = ",".join(event_names)
        return (f"marshal-pmu build --events {events} "
                f"--counter-arch {self.increment_mode} {workload}.json")

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------

    def measure(self, workload: str, config: CoreConfig,
                event_names: Optional[Sequence[str]] = None,
                scale: float = 1.0,
                max_cycles: Optional[int] = None) -> Measurement:
        """Run *workload* on *config*, returning read-back event values.

        The deterministic simulator makes multiplexed passes exact: each
        pass counts the identical run with a different counter set, so
        the core runs once; ``passes`` still reports the plan's count.

        *max_cycles* arms the per-pass watchdog of the core models (see
        :meth:`~repro.cores.boom.BoomCore.run`); the resilient runner
        sets it so a hung run raises instead of spinning.
        """
        if event_names is None:
            event_names = sorted(events_for_core(self.core))
        if not event_names:
            raise ValueError(
                "measure() needs at least one event name; an empty list "
                "would silently return zero passes and stale counters")
        passes = self.plan(event_names)
        result, stream = self._run(config, self._trace(workload, scale),
                                   max_cycles)
        values: Dict[str, int] = {}
        for assignment in passes:
            readings, csr = self._count_pass(assignment, result, stream)
            for index, names in assignment.slots:
                values[names[0]] = readings[index]
        return Measurement(
            workload=workload, config_name=config.name, core=self.core,
            events=values, cycles=csr.mcycle, instret=csr.minstret,
            passes=len(passes), result=result,
            increment_mode=self.increment_mode)

    def measure_grouped(self, workload: str, config: CoreConfig,
                        groups: Sequence[Sequence[str]],
                        scale: float = 1.0) -> Dict[str, int]:
        """Map several same-set events onto shared counters (Fig. 1).

        Each group occupies ONE hardware counter whose increment is the
        aggregate of the group's events under the configured increment
        mode — the multi-event mapping of §II-A that conserves counters
        at the cost of per-event resolution.  Returns
        ``{"a+b": value}`` keyed by the joined group names.
        """
        assignment = CounterAssignment()
        counter = FIRST_HPM_INDEX
        for group in groups:
            if counter > LAST_HPM_INDEX:
                raise ValueError("more groups than hardware counters")
            assignment.slots.append((counter, list(group)))
            counter += 1
        readings, _ = self._count_pass(
            assignment, *self._run(config, self._trace(workload, scale)))
        return {"+".join(names): readings[index]
                for index, names in assignment.slots}

    def _trace(self, workload: str, scale: float):
        trace = build_trace(workload, scale=scale)
        if self.fault_injector is not None:
            trace = self.fault_injector.perturb_trace(trace)
        return trace

    def _run(self, config: CoreConfig, trace,
             max_cycles: Optional[int] = None,
             ) -> Tuple[CoreResult, Optional[SignalStream]]:
        """The measurement's one run: plain for fault-free ``adders``
        counters, else recorded, with the injector as fault hook."""
        core_model = make_core(config)
        if self.increment_mode == "adders" and self.fault_injector is None:
            return core_model.run(trace, max_cycles=max_cycles), None
        core_model.fault_hook = self.fault_injector
        stream = SignalStream()
        return core_model.run(trace, max_cycles=max_cycles,
                              stream=stream), stream

    def _count_pass(self, assignment: CounterAssignment, result: CoreResult,
                    stream: Optional[SignalStream],
                    ) -> Tuple[Dict[int, int], CsrFile]:
        """Program one pass's counters, count the run (or credit its
        totals without a *stream*) and read them back by index."""
        csr = CsrFile(core=self.core, increment_mode=self.increment_mode,
                      fault_injector=self.fault_injector)
        if self.mode == "linux":
            self.apply_boot_sequence(csr, assignment)
        else:
            self.setup(csr, assignment)
        if stream is None:
            csr.credit(result)
        else:
            csr.count(stream)
            csr.drain()
        readings = {index: csr.corrected_value_for(index)
                    for index, _ in assignment.slots}
        return readings, csr
