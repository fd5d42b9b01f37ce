"""Trace analyzer: temporal TMA, overlap bounds, recovery CDFs (§IV-C/V-B).

Counters summarize; traces explain.  This module implements the paper's
out-of-band validation workflow on decoded per-cycle signal series:

- **Temporal TMA** — classify every cycle's slots directly from the
  trace and compare against the counter-based model (the "trace-based
  validation" of Fig. 4).
- **Overlap bounding** (Table VI) — scan for I-cache refills that overlap
  Recovering windows inside a padded rolling window; any fetch bubble in
  the intersection is ambiguous, and the total bounds the perturbation of
  the Frontend and Bad Speculation classes.
- **Recovery sequences** (Fig. 8b) — extract every run of consecutive
  Recovering cycles and build its CDF; the dominant length is the
  constant the TMA model uses for ``M_rl``.
- **ASCII rasters** (Fig. 3 / Fig. 8a) — render trace windows as dot
  plots for eyeballing individual events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: The paper pads overlap windows by 50 cycles to stay conservative.
DEFAULT_WINDOW_PAD = 50


def _padded_activity(series: Sequence[int], pad: int) -> List[bool]:
    """Boolean per cycle: was the signal high within +/- pad cycles?"""
    n = len(series)
    active = [False] * n
    last_high = -(pad + 1)
    for cycle, value in enumerate(series):
        if value:
            last_high = cycle
        if cycle - last_high <= pad:
            active[cycle] = True
    next_high = n + pad + 1
    for cycle in range(n - 1, -1, -1):
        if series[cycle]:
            next_high = cycle
        if next_high - cycle <= pad:
            active[cycle] = True
    return active


# ---------------------------------------------------------------------------
# temporal TMA
# ---------------------------------------------------------------------------

@dataclass
class TemporalTma:
    """Slot classification computed cycle by cycle from a trace."""

    cycles: int
    commit_width: int
    retiring_slots: int
    bad_spec_slots: int
    frontend_slots: int
    backend_slots: int

    @property
    def total_slots(self) -> int:
        return self.cycles * self.commit_width

    def fractions(self) -> Dict[str, float]:
        total = max(1, self.total_slots)
        return {
            "retiring": self.retiring_slots / total,
            "bad_speculation": self.bad_spec_slots / total,
            "frontend": self.frontend_slots / total,
            "backend": self.backend_slots / total,
        }


def temporal_tma(signals: Mapping[str, Sequence[int]],
                 commit_width: int) -> TemporalTma:
    """Classify every slot straight from the trace.

    Priority per cycle: retired µops are Retiring; Recovering cycles and
    issued-but-eventually-flushed work are Bad Speculation; fetch-bubble
    lanes are Frontend; whatever is left of the W_C slots is Backend.
    """
    retired_series = signals.get("uops_retired",
                                 signals.get("instr_retired", []))
    recovering = signals.get("recovering", [])
    bubbles = signals.get("fetch_bubbles", [])
    cycles = max(len(retired_series), len(recovering), len(bubbles))

    retiring = 0
    bad_spec = 0
    frontend = 0
    backend = 0
    for cycle in range(cycles):
        slots_left = commit_width
        retired = retired_series[cycle].bit_count() \
            if cycle < len(retired_series) else 0
        retired = min(retired, slots_left)
        retiring += retired
        slots_left -= retired
        if cycle < len(recovering) and recovering[cycle]:
            bad_spec += slots_left
            continue
        bubble = bubbles[cycle].bit_count() if cycle < len(bubbles) else 0
        bubble = min(bubble, slots_left)
        frontend += bubble
        slots_left -= bubble
        backend += slots_left
    return TemporalTma(cycles=cycles, commit_width=commit_width,
                       retiring_slots=retiring, bad_spec_slots=bad_spec,
                       frontend_slots=frontend, backend_slots=backend)


def windowed_tma(signals: Mapping[str, Sequence[int]],
                 commit_width: int,
                 window: int = 1024) -> List[TemporalTma]:
    """Temporal TMA over fixed windows ("performance event windows").

    The paper's temporal model exists precisely so characterization can
    look at *windows* rather than whole-run aggregates (§IV-C); this
    splits the trace into ``window``-cycle chunks and classifies each
    independently, giving a phase profile of the workload.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    length = max((len(series) for series in signals.values()),
                 default=0)
    profiles: List[TemporalTma] = []
    for start in range(0, length, window):
        chunk = {name: series[start:start + window]
                 for name, series in signals.items()}
        profiles.append(temporal_tma(chunk, commit_width))
    return profiles


def validate_against_counters(temporal: TemporalTma,
                              counter_fractions: Mapping[str, float]
                              ) -> Dict[str, float]:
    """Per-class |trace - counters| deltas (validation of Fig. 4)."""
    trace_fractions = temporal.fractions()
    return {name: abs(trace_fractions[name]
                      - counter_fractions.get(name, 0.0))
            for name in trace_fractions}


# ---------------------------------------------------------------------------
# overlap bounding (Table VI)
# ---------------------------------------------------------------------------

@dataclass
class OverlapReport:
    """Upper bound on slots that could belong to either of two classes."""

    total_slots: int
    overlap_slots: int
    frontend_fraction: float
    bad_spec_fraction: float

    @property
    def overlap_fraction(self) -> float:
        return self.overlap_slots / max(1, self.total_slots)

    @property
    def frontend_perturbation(self) -> float:
        """Worst-case relative shift of Frontend if all overlap moved."""
        if self.frontend_fraction <= 0:
            return 0.0
        return self.overlap_fraction / self.frontend_fraction

    @property
    def bad_spec_perturbation(self) -> float:
        if self.bad_spec_fraction <= 0:
            return 0.0
        return self.overlap_fraction / self.bad_spec_fraction

    def render(self) -> str:
        rows = [
            ("Overlap Frontend, I$-miss & Bad Speculation",
             f"{100 * self.overlap_fraction:.3f}%", ""),
            ("Frontend", f"{100 * self.frontend_fraction:.2f}%",
             f"± {100 * self.frontend_perturbation:.2f}%"),
            ("Bad Speculation", f"{100 * self.bad_spec_fraction:.2f}%",
             f"± {100 * self.bad_spec_perturbation:.2f}%"),
        ]
        width = max(len(row[0]) for row in rows) + 2
        return "\n".join(f"{name:<{width}s}{value:>9s} {err}"
                         for name, value, err in rows)


def analyze_overlap(signals: Mapping[str, Sequence[int]],
                    commit_width: int,
                    window_pad: int = DEFAULT_WINDOW_PAD) -> OverlapReport:
    """Bound the Frontend / Bad-Speculation overlap (Table VI).

    Scans for I-cache refill activity and Recovering windows within a
    rolling window padded by *window_pad* cycles; any fetch bubble or
    recovery slot inside the intersection could count toward either
    class, so their total is a conservative upper bound.
    """
    icache = [a or b for a, b in zip(
        _series(signals, "icache_miss"), _series(signals, "icache_blocked"))]
    recovering = _series(signals, "recovering")
    bubbles = _series(signals, "fetch_bubbles")
    cycles = len(icache)

    icache_window = _padded_activity(icache, window_pad)
    recovering_window = _padded_activity(recovering, window_pad)

    overlap_slots = 0
    for cycle in range(cycles):
        if icache_window[cycle] and recovering_window[cycle]:
            if cycle < len(bubbles) and bubbles[cycle]:
                overlap_slots += bubbles[cycle].bit_count()
            if cycle < len(recovering) and recovering[cycle]:
                overlap_slots += commit_width

    temporal = temporal_tma(signals, commit_width)
    fractions = temporal.fractions()
    return OverlapReport(
        total_slots=temporal.total_slots, overlap_slots=overlap_slots,
        frontend_fraction=fractions["frontend"],
        bad_spec_fraction=fractions["bad_speculation"])


def _series(signals: Mapping[str, Sequence[int]],
            name: str) -> Sequence[int]:
    series = signals.get(name)
    if series is None:
        lengths = [len(s) for s in signals.values()]
        return [0] * (max(lengths) if lengths else 0)
    return series


# ---------------------------------------------------------------------------
# recovery sequences (Fig. 8b)
# ---------------------------------------------------------------------------

@dataclass
class RecoverySequence:
    """One run of consecutive Recovering cycles."""

    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length


def recovery_sequences(recovering: Sequence[int]) -> List[RecoverySequence]:
    """Extract every maximal run of Recovering cycles."""
    sequences: List[RecoverySequence] = []
    run_start: Optional[int] = None
    for cycle, value in enumerate(recovering):
        if value and run_start is None:
            run_start = cycle
        elif not value and run_start is not None:
            sequences.append(RecoverySequence(run_start, cycle - run_start))
            run_start = None
    if run_start is not None:
        sequences.append(RecoverySequence(run_start,
                                          len(recovering) - run_start))
    return sequences


def length_cdf(lengths: Sequence[int]) -> List[Tuple[int, float]]:
    """(length, cumulative fraction) points of the CDF (Fig. 8b)."""
    if not lengths:
        return []
    ordered = sorted(lengths)
    total = len(ordered)
    points: List[Tuple[int, float]] = []
    seen = 0
    previous = None
    for value in ordered:
        seen += 1
        if value != previous:
            points.append((value, seen / total))
            previous = value
        else:
            points[-1] = (value, seen / total)
    return points


def modal_length(lengths: Sequence[int]) -> int:
    """The dominant recovery length (the paper's M_rl = 4)."""
    if not lengths:
        return 0
    counts: Dict[int, int] = {}
    for value in lengths:
        counts[value] = counts.get(value, 0) + 1
    return max(counts, key=lambda k: (counts[k], -k))


# ---------------------------------------------------------------------------
# validation of the motivating example's formula (§III)
# ---------------------------------------------------------------------------

def check_fetch_bubble_formula(signals: Mapping[str, Sequence[int]]) -> int:
    """Count cycles violating
    ``FetchBubble == !Recovering & (!IBufValid & IBufReady)``.

    Returns the number of mismatching cycles (0 = the hardware event and
    the trace-derived definition agree everywhere).
    """
    bubbles = _series(signals, "fetch_bubbles")
    recovering = _series(signals, "recovering")
    valid = _series(signals, "ibuf_valid")
    ready = _series(signals, "ibuf_ready")
    cycles = min(len(bubbles), len(recovering), len(valid), len(ready))
    mismatches = 0
    for cycle in range(cycles):
        derived = (not recovering[cycle]) and (not valid[cycle]) \
            and bool(ready[cycle])
        if bool(bubbles[cycle]) != derived:
            mismatches += 1
    return mismatches


# ---------------------------------------------------------------------------
# ASCII rasters (Fig. 3 / Fig. 8a)
# ---------------------------------------------------------------------------

def render_raster(signals: Mapping[str, Sequence[int]],
                  names: Sequence[str], start: int, end: int,
                  step: int = 1) -> str:
    """Dot-plot a trace window: one row per signal, one column per cycle."""
    lines = [f"cycles {start}..{end} (step {step})"]
    label_width = max(len(name) for name in names) + 2
    for name in names:
        series = _series(signals, name)
        row = []
        for cycle in range(start, min(end, len(series)), step):
            row.append("*" if series[cycle] else ".")
        lines.append(f"{name:<{label_width}s}|{''.join(row)}|")
    return "\n".join(lines)


def find_first(signals: Mapping[str, Sequence[int]], name: str,
               after: int = 0) -> Optional[int]:
    """First cycle at/after *after* where *name* is asserted."""
    series = _series(signals, name)
    for cycle in range(after, len(series)):
        if series[cycle]:
            return cycle
    return None
