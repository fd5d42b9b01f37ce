"""AutoCounter: annotation-driven out-of-band counters (FirePerf).

The paper's related work (§VI) positions Icicle against FirePerf's
AutoCounter, which "allows for annotating boolean signals and producing
counter values at the end of simulation".  This module reproduces that
tool on top of the same recorded signal stream the tracer reads: any
signal the cores emit can be annotated — including ones that are *not*
PMU events (e.g. Rocket's raw ``ibuf_valid``) — and read out either as
end-of-run totals or as periodic samples forming a time series.

Unlike the in-band PMU, AutoCounter needs no CSR programming and no
counter budget; like the paper says, it is an out-of-band evaluation
aid, not something software on the target could read.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..cores.base import SignalStream


@dataclass(frozen=True)
class CounterAnnotation:
    """One annotated signal.

    ``reduce`` selects how multi-lane masks turn into an increment:
    ``"popcount"`` (events across lanes) or ``"or"`` (cycles where any
    lane is high).
    """

    signal: str
    label: str = ""
    reduce: str = "popcount"

    def __post_init__(self) -> None:
        if self.reduce not in ("popcount", "or"):
            raise ValueError(f"unknown reduce mode {self.reduce!r}")

    @property
    def name(self) -> str:
        return self.label or self.signal


@dataclass
class AutoCounterSample:
    """Cumulative counter values at one readout cycle."""

    cycle: int
    values: Dict[str, int]


class AutoCounter:
    """The AutoCounter workflow over a recorded signal stream."""

    def __init__(self, annotations: Sequence[CounterAnnotation],
                 readout_interval: Optional[int] = None) -> None:
        if not annotations:
            raise ValueError("at least one annotation required")
        names = [annotation.name for annotation in annotations]
        if len(set(names)) != len(names):
            raise ValueError("duplicate annotation labels")
        if readout_interval is not None and readout_interval <= 0:
            raise ValueError("readout interval must be positive")
        self.annotations = list(annotations)
        self.readout_interval = readout_interval
        self._totals: Dict[str, int] = {name: 0 for name in names}
        self.samples: List[AutoCounterSample] = []
        self.cycles = 0

    def count(self, stream: SignalStream) -> None:
        """Count a recorded run, reading out at every interval's end."""
        interval = self.readout_interval
        for first, cycles, signals in stream.runs(interval):
            self.cycles += cycles
            for annotation in self.annotations:
                mask = signals.get(annotation.signal, 0)
                self._totals[annotation.name] += cycles * (
                    mask.bit_count() if annotation.reduce == "popcount"
                    else min(mask, 1))
            if interval is not None and (first + cycles) % interval == 0:
                self.samples.append(AutoCounterSample(
                    first + cycles - 1, dict(self._totals)))

    def total(self, name: str) -> int:
        """End-of-simulation value of one annotated counter."""
        return self._totals[name]

    def totals(self) -> Dict[str, int]:
        return dict(self._totals)

    def rate(self, name: str) -> float:
        """Events per cycle over the whole run."""
        return self._totals[name] / self.cycles if self.cycles else 0.0

    def window_deltas(self, name: str) -> List[int]:
        """Per-readout-window increments (the time-series view)."""
        deltas = []
        previous = 0
        for sample in self.samples:
            deltas.append(sample.values[name] - previous)
            previous = sample.values[name]
        return deltas

    def to_csv(self) -> str:
        """Samples as CSV: cycle column plus one column per counter."""
        names = [annotation.name for annotation in self.annotations]
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["cycle"] + names)
        for sample in self.samples:
            writer.writerow([sample.cycle]
                            + [sample.values[name] for name in names])
        return out.getvalue()
