"""Model faults: broken counters, cut traces and hung cores.

The system seams (:mod:`repro.chaos.injector`) attack the stack around
the simulator; the model faults here attack the measurement itself, so
the invariant checker has something to refute.  A :class:`FaultSpec`
names one concrete fault and a :class:`FaultInjector` turns it into the
hooks the instrumented layers consult:

===================  ============================================
fault class          injection point
===================  ============================================
``drop-increments``  :meth:`FaultInjector.on_signals` — the CSR
                     file's view of the per-cycle lane masks loses
                     increments (a broken counter wire), while the
                     core's own accumulation stays correct.
``bitflip-counter``  :meth:`FaultInjector.on_counter_read` — one
                     HPM counter value is read back with a flipped
                     bit (a stuck read port / SEU).
``truncate-trace``   :meth:`FaultInjector.perturb_trace` — the
                     trace is cut short before replay (a
                     truncated TracerV dump).
``stall-core``       :meth:`FaultInjector.stall_window` — from a
                     chosen cycle on, the core freezes forever (a
                     hung memory system); only a watchdog ends it.
===================  ============================================

:func:`draw_fault` picks a spec's parameters the way
:meth:`~repro.chaos.plan.ChaosPlan.decide` picks a seam fault: every
field is a pure ``sha256`` draw keyed by ``(seed, class, workload,
config, field)``, so a trial depends on nothing but its own identity.
The drop-increments coin is the one stateful draw, a
``random.Random(spec.seed)`` stream private to one injector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple

from .plan import decision_fraction

if TYPE_CHECKING:
    from ..isa.columnar import ColumnarTrace

DROP_INCREMENTS = "drop-increments"
BITFLIP_COUNTER = "bitflip-counter"
TRUNCATE_TRACE = "truncate-trace"
STALL_CORE = "stall-core"

#: Every model fault class, in campaign order.
MODEL_FAULTS = (DROP_INCREMENTS, BITFLIP_COUNTER, TRUNCATE_TRACE,
                STALL_CORE)


@dataclass(frozen=True)
class FaultSpec:
    """One concrete fault, fully determined by its fields.

    Only the fields relevant to ``kind`` are consulted; the rest keep
    their defaults.
    """

    kind: str
    seed: int = 0
    #: drop-increments: which event's increments are dropped, and with
    #: what per-cycle probability.
    event: str = "uops_retired"
    drop_rate: float = 0.5
    #: bitflip-counter: which programmable counter index (3..31) is
    #: perturbed at read time, and which bit flips.
    counter_index: int = 3
    bit: int = 37
    #: truncate-trace: fraction of the dynamic trace that survives.
    keep_fraction: float = 0.5
    #: stall-core: first frozen cycle (the stall never releases).
    stall_at: int = 64

    def describe(self) -> str:
        if self.kind == DROP_INCREMENTS:
            return (f"{self.kind}: drop {self.drop_rate:.0%} of "
                    f"{self.event!r} increments")
        if self.kind == BITFLIP_COUNTER:
            return (f"{self.kind}: flip bit {self.bit} of "
                    f"mhpmcounter{self.counter_index} at read")
        if self.kind == TRUNCATE_TRACE:
            return (f"{self.kind}: keep first "
                    f"{self.keep_fraction:.0%} of the trace")
        if self.kind == STALL_CORE:
            return f"{self.kind}: freeze the core from cycle {self.stall_at}"
        return self.kind


def draw_fault(seed: int, kind: str, workload: str, config: str,
               events: Sequence[str]) -> FaultSpec:
    """The *kind* fault for one (workload, config) pair under *seed*.

    *events* are the counters the trial programs, in counter order
    (``mhpmcounter3`` upward): the dropped event is one of them and the
    flipped counter is one that is programmed.
    """
    if kind not in MODEL_FAULTS:
        raise ValueError(f"unknown model fault {kind!r}; "
                         f"choose from {MODEL_FAULTS}")

    def draw(name: str) -> float:
        return decision_fraction(seed, "model",
                                 f"{kind}:{workload}:{config}:{name}")

    return FaultSpec(
        kind=kind,
        seed=int(draw("seed") * (1 << 30)),
        event=events[int(draw("event") * len(events))],
        drop_rate=0.3 + 0.4 * draw("drop_rate"),
        counter_index=3 + int(draw("counter_index") * len(events)),
        bit=33 + int(draw("bit") * 15),
        keep_fraction=0.3 + 0.5 * draw("keep_fraction"),
        stall_at=16 + int(draw("stall_at") * 240),
    )


class FaultInjector:
    """Runtime hooks for one :class:`FaultSpec`.

    An injector is single-fault and single-use per run: create one per
    (spec, run) pair.  Hooks not owned by the spec's class are exact
    pass-throughs, so the same injector object can be handed to every
    instrumented layer at once.  ``injections`` counts how many times
    the fault actually fired (for stall-core, the frozen cycles),
    letting a campaign discard vacuous trials.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.injections = 0

    # ------------------------------------------------------------------
    # CsrFile hooks
    # ------------------------------------------------------------------

    def on_signals(self, cycle: int,
                   signals: Mapping[str, int]) -> Mapping[str, int]:
        """Perturb the CSR file's view of one cycle's lane masks."""
        spec = self.spec
        if spec.kind != DROP_INCREMENTS:
            return signals
        mask = signals.get(spec.event, 0)
        if not mask or self.rng.random() >= spec.drop_rate:
            return signals
        # Drop the lowest asserted lane bit this cycle.
        perturbed: Dict[str, int] = dict(signals)
        perturbed[spec.event] = mask & (mask - 1)
        self.injections += 1
        return perturbed

    def on_counter_read(self, index: int, value: int) -> int:
        """Perturb one counter value at software-read time."""
        spec = self.spec
        if spec.kind != BITFLIP_COUNTER or index != spec.counter_index:
            return value
        self.injections += 1
        return value ^ (1 << spec.bit)

    # ------------------------------------------------------------------
    # core hooks
    # ------------------------------------------------------------------

    def stall_window(self, cycle: int,
                     end: int) -> Optional[Tuple[int, int]]:
        """The one frozen window, ``[stall_at, end)``: it never releases.

        Asked inside it, the core freezes up to *end* now, so every
        cycle from *cycle* to *end* counts as an injection.
        """
        spec = self.spec
        if spec.kind != STALL_CORE or spec.stall_at >= end:
            return None
        if cycle >= spec.stall_at:
            self.injections += end - cycle
        return spec.stall_at, end

    # ------------------------------------------------------------------
    # trace hook
    # ------------------------------------------------------------------

    def perturb_trace(self, trace: "ColumnarTrace") -> "ColumnarTrace":
        """Cut the trace short before it reaches the core.

        The cut is a column slice, so the truncated trace stays
        columnar; it keeps the workload's name and is marked
        ``halt_reason="truncated"``.
        """
        spec = self.spec
        if spec.kind != TRUNCATE_TRACE:
            return trace
        keep = max(1, int(len(trace) * spec.keep_fraction))
        if keep >= len(trace):
            keep = len(trace) - 1
        self.injections += 1
        truncated = trace.slice(0, keep)
        truncated.program_name = trace.program_name
        truncated.halt_reason = "truncated"
        return truncated
