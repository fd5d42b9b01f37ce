"""Deterministic fault injection: the fault model and its hooks.

A :class:`FaultSpec` names one concrete fault; a :class:`FaultPlan`
samples a campaign of specs deterministically from a seed; a
:class:`FaultInjector` turns one spec into the runtime hooks the
instrumented layers consult:

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
``corrupt-cache``    :meth:`FaultInjector.corrupt_cache_file` —
                     bytes of an on-disk result entry are flipped
                     (bit rot / torn write).
``stall-core``       :meth:`FaultInjector.stall_cycle` — from a
                     chosen cycle on, the core freezes forever (a
                     hung memory system); only a watchdog ends it.
===================  ============================================

Every decision is drawn from ``random.Random(spec.seed)``, so a
campaign is exactly reproducible from ``(seed, count)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

from ..isa.columnar import ColumnarTrace, as_columnar

DROP_INCREMENTS = "drop-increments"
BITFLIP_COUNTER = "bitflip-counter"
TRUNCATE_TRACE = "truncate-trace"
CORRUPT_CACHE = "corrupt-cache"
STALL_CORE = "stall-core"

#: Every fault class the campaign can draw, in injection order.
FAULT_CLASSES = (DROP_INCREMENTS, BITFLIP_COUNTER, TRUNCATE_TRACE,
                 CORRUPT_CACHE, STALL_CORE)


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
        if self.kind == CORRUPT_CACHE:
            return f"{self.kind}: flip bytes of the on-disk entry"
        if self.kind == STALL_CORE:
            return f"{self.kind}: freeze the core from cycle {self.stall_at}"
        return self.kind


class FaultPlan:
    """Deterministically sample *count* fault specs from *seed*.

    Classes are covered round-robin (so ``count >= len(classes)``
    guarantees every class appears); per-fault parameters are drawn
    from a seed-derived RNG.  ``counter_event_names`` bounds the
    bitflip target to a counter that will actually be programmed.
    """

    def __init__(self, seed: int = 0, count: int = 5,
                 classes: Sequence[str] = FAULT_CLASSES,
                 counter_event_names: Sequence[str] = ()) -> None:
        for kind in classes:
            if kind not in FAULT_CLASSES:
                raise ValueError(f"unknown fault class {kind!r}; "
                                 f"choose from {FAULT_CLASSES}")
        self.seed = seed
        self.count = count
        self.classes = tuple(classes)
        self.counter_event_names = tuple(counter_event_names)

    def specs(self) -> List[FaultSpec]:
        rng = random.Random(self.seed)
        n_counters = max(1, len(self.counter_event_names) or 4)
        specs: List[FaultSpec] = []
        for i in range(self.count):
            kind = self.classes[i % len(self.classes)]
            spec = FaultSpec(
                kind=kind,
                seed=rng.randrange(1 << 30),
                event=(rng.choice(list(self.counter_event_names))
                       if self.counter_event_names else "uops_retired"),
                drop_rate=rng.uniform(0.3, 0.7),
                counter_index=3 + rng.randrange(n_counters),
                bit=rng.randrange(33, 48),
                keep_fraction=rng.uniform(0.3, 0.8),
                stall_at=rng.randrange(16, 256),
            )
            specs.append(spec)
        return specs


class FaultInjector:
    """Runtime hooks for one :class:`FaultSpec`.

    An injector is single-fault and single-use per run: create one per
    (spec, run) pair.  Hooks not owned by the spec's class are exact
    pass-throughs, so the same injector object can be handed to every
    instrumented layer at once.  ``injections`` counts how many times
    the fault actually fired, letting a campaign discard vacuous trials.
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

    def stall_cycle(self, cycle: int) -> bool:
        """True when the core must freeze this cycle (never releases)."""
        spec = self.spec
        if spec.kind != STALL_CORE or cycle < spec.stall_at:
            return False
        self.injections += 1
        return True

    # ------------------------------------------------------------------
    # trace hook
    # ------------------------------------------------------------------

    def perturb_trace(self, trace: ColumnarTrace) -> ColumnarTrace:
        """Cut the trace short before it reaches the core.

        The cut is a column slice, so the truncated trace stays
        columnar; it keeps the workload's name and is marked
        ``halt_reason="truncated"``.
        """
        spec = self.spec
        if spec.kind != TRUNCATE_TRACE:
            return trace
        trace = as_columnar(trace)
        keep = max(1, int(len(trace) * spec.keep_fraction))
        if keep >= len(trace):
            keep = len(trace) - 1
        self.injections += 1
        truncated = trace.slice(0, keep)
        truncated.program_name = trace.program_name
        truncated.halt_reason = "truncated"
        return truncated

    # ------------------------------------------------------------------
    # cache hook
    # ------------------------------------------------------------------

    def corrupt_cache_file(self, path: Path) -> None:
        """Flip bytes of an on-disk cache entry in place."""
        spec = self.spec
        if spec.kind != CORRUPT_CACHE:
            return
        raw = bytearray(Path(path).read_bytes())
        if not raw:
            return
        for _ in range(max(1, len(raw) // 64)):
            offset = self.rng.randrange(len(raw))
            raw[offset] ^= 1 << self.rng.randrange(8)
        Path(path).write_bytes(bytes(raw))
        self.injections += 1
