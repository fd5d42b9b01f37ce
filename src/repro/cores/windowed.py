"""Time-sliced intra-trace parallelism + sampled simulation.

Every earlier wall-clock lever parallelizes *across* (workload, config)
pairs; one long trace is still one serial timing run.  This module
shards a single :class:`~repro.isa.columnar.ColumnarTrace` into K
instruction windows, simulates the windows in parallel (on either
timing engine), and stitches the per-window
:class:`~repro.cores.base.CoreResult` totals back into a whole-run
result.

Warmup: run-and-subtract
------------------------

A window ``[start, stop)`` cannot start from the true microarchitectural
state at ``start`` without simulating everything before it.  Instead,
each window is measured as the *difference of two runs* over shared
immutable columns:

- the **full** run simulates ``trace[start-W : stop)`` (W warmup
  instructions prepended), and
- the **warm** run simulates only the warmup prefix ``trace[start-W :
  start)``;

``measured = full - warm``.  The simulation is trace-driven and
deterministic, so both runs are cycle-identical until the warm run
exhausts its fetch stream: every per-committed-instruction event (the
:data:`EXACT_EVENTS` class — retire counts, instruction-class counts)
subtracts *exactly*, leaving precisely the window's own instructions.
Per-cycle occupancy events (cycles, fetch bubbles, interlocks, buffer
occupancy) differ only in the warm run's drain tail and in residual
state divergence at window boundaries — those are tolerance-gated per
window (:func:`assert_stitch_equivalent`), and rare negative deltas
clamp to zero.  ``windows=1, warmup=0`` degenerates to the plain run
and stitches bit-identically.

Modes
-----

**exact** simulates every instruction (contiguous spans covering the
whole trace); stitched totals are gated against the ``run_core`` oracle
by ``tests/test_windowed.py`` and the bench ``timing.windowed`` section.
**sampled** simulates periodic sample spans only (SimPoint-style) and
extrapolates totals by the coverage factor, attaching per-TMA-slot
error bars from the cross-window variance; sampled results always carry
``sampled=True`` so they can never masquerade as exact.
"""

from __future__ import annotations

import math
import os
import sys
import time
from concurrent.futures import as_completed
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..isa.columnar import ColumnarTrace, as_columnar, unpack_window
from .base import BoomConfig, CoreResult, RocketConfig
from .batch import GridPoint, make_core

CoreConfig = Union[RocketConfig, BoomConfig]

#: Environment defaults picked up by ``run_core`` when no explicit
#: window arguments are given (lets CI force a windowed tier-1 pass).
ENV_WINDOWS = "REPRO_WINDOWS"
ENV_WARMUP = "REPRO_WINDOW_WARMUP"

#: Default warmup length (instructions) prepended to every window that
#: does not start at the beginning of the trace.  See docs/windowed.md
#: for the calibration behind this value.
DEFAULT_WARMUP = 2048

#: Sampled mode: minimum sample-span length, and the fraction of each
#: period that is sampled (1/10th, floored at the minimum).
MIN_SAMPLE_LEN = 256
SAMPLE_FRACTION = 10

#: Events counted once per committed instruction (or per architectural
#: instance in the trace): identical in the warm prefix of the full and
#: warm runs, so run-and-subtract recovers the window's own counts
#: *exactly* and stitched totals must equal the oracle bit-for-bit.
#: Everything else (cycles and per-cycle occupancy/stall counts, and
#: any state-dependent counts such as cache misses or mispredicts) is
#: tolerance-gated: boundary drain tails and residual cold-state
#: divergence perturb them by a bounded per-window amount.
EXACT_EVENTS = frozenset({
    "fence_retired",
    "load", "store", "atomic", "branch", "fence", "system", "arith",
    "branch_resolved",
})

#: Retire counters are exact *up to end-of-stream phantom commits*: a
#: BOOM trace that ends while a mispredict recovery is in flight can
#: commit up to a commit-group of wrong-path phantom uops before the
#: flush lands, so the serial oracle itself over-retires by one or two
#: uops on some workloads.  Stitched results pin every window to its
#: architectural length (the architecturally correct count), which
#: leaves a bounded residual |delta| <= RETIRE_EDGE_SLACK against the
#: oracle's raw counters (observed worst case -2 across the registry;
#: see docs/windowed.md).  ``instret`` is gated with the same slack.
RETIRE_EVENTS = frozenset({"instr_retired", "uops_retired"})
RETIRE_EDGE_SLACK = 4

#: Tolerance-gate constants for the remaining event classes (cycles,
#: per-cycle occupancy/stall counts, state-dependent counts such as
#: cache misses or mispredicts), calibrated over the full registry x
#: {Rocket, BOOM-s/m/l} at ``windows=4, warmup=8192`` (see
#: docs/windowed.md): the allowed absolute deviation of a stitched
#: total is ``max(REL_TOL * oracle, ABS_PER_WINDOW * K)``.  The
#: constants assume warmup large enough to cover the cold-cache
#: footprint (>= GATE_WARMUP); shorter warmups trade accuracy for
#: speed and are not covered by this gate.
REL_TOL = 0.12
ABS_PER_WINDOW = 1024

#: The warmup the calibration (and the equivalence gate tests) use:
#: large enough that per-window cold-start divergence on the
#: cache-capacity-bound registry workloads drops inside the tolerance
#: class above.
GATE_WARMUP = 8192


@dataclass(frozen=True)
class WindowPlan:
    """The window decomposition of one trace."""

    n: int
    windows: int
    warmup: int
    sampled: bool
    #: Measured spans ``(start, stop)``; exact plans tile ``[0, n)``.
    spans: Tuple[Tuple[int, int], ...]

    @property
    def measured_instructions(self) -> int:
        return sum(stop - start for start, stop in self.spans)

    @property
    def coverage(self) -> float:
        return self.measured_instructions / self.n if self.n else 0.0


def resolve_windows_env() -> Tuple[Optional[int], Optional[int]]:
    """(windows, warmup) defaults from the environment, or ``None``s."""

    def read(name: str) -> Optional[int]:
        raw = os.environ.get(name)
        if raw is None or not raw.strip():
            return None
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"{name} must be an integer, got {raw!r}") from exc
        return value

    return read(ENV_WINDOWS), read(ENV_WARMUP)


def normalized_warmup(windows: int, warmup: Optional[int],
                      sampled: bool) -> int:
    """The warmup a plan will resolve ``warmup=None`` to.

    Pure function of the request (no trace length), so cache and
    checkpoint keys can be computed before any trace is built and stay
    consistent between :func:`run_windowed` and the batch engine.
    """
    if warmup is not None:
        return int(warmup)
    return DEFAULT_WARMUP if windows > 1 or sampled else 0


def plan_windows(n: int, windows: int, warmup: Optional[int] = None,
                 sampled: bool = False) -> WindowPlan:
    """Decompose a trace of *n* instructions into a window plan.

    Exact plans tile ``[0, n)`` with K near-equal contiguous spans.
    Sampled plans place one sample span at the head of each of K equal
    periods (``max(MIN_SAMPLE_LEN, period // SAMPLE_FRACTION)``
    instructions, clipped to the period).  *warmup* of ``None`` picks
    :data:`DEFAULT_WARMUP`; the first window never needs warmup (its
    true initial state *is* the reset state).
    """
    if n <= 0:
        raise ValueError(f"cannot window an empty trace (n={n})")
    if windows < 1:
        raise ValueError(f"windows must be >= 1, got {windows}")
    warmup = normalized_warmup(windows, warmup, sampled)
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    count = min(windows, n)
    spans: List[Tuple[int, int]] = []
    if sampled:
        period = n // count
        sample_len = min(period, max(MIN_SAMPLE_LEN, period // SAMPLE_FRACTION))
        for i in range(count):
            start = i * period
            spans.append((start, min(start + sample_len, n)))
    else:
        base, rem = divmod(n, count)
        start = 0
        for i in range(count):
            stop = start + base + (1 if i < rem else 0)
            spans.append((start, stop))
            start = stop
    return WindowPlan(n=n, windows=count, warmup=warmup, sampled=sampled,
                      spans=tuple(spans))


# ----------------------------------------------------------------------
# Measurement: run-and-subtract per window


def _subtract_counts(full: Dict[str, int], warm: Dict[str, int]
                     ) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for name in full.keys() | warm.keys():
        value = full.get(name, 0) - warm.get(name, 0)
        if value > 0:
            out[name] = value
    return out


def _subtract_lanes(full: Dict[str, List[int]], warm: Dict[str, List[int]]
                    ) -> Dict[str, List[int]]:
    out: Dict[str, List[int]] = {}
    for name in full.keys() | warm.keys():
        f = full.get(name, [])
        w = warm.get(name, [])
        lanes = [max(0, (f[i] if i < len(f) else 0)
                     - (w[i] if i < len(w) else 0))
                 for i in range(max(len(f), len(w)))]
        if any(lanes):
            out[name] = lanes
    return out


def _subtract_stats(full, warm):
    kwargs = {f.name: max(0, getattr(full, f.name) - getattr(warm, f.name))
              for f in dataclass_fields(full)}
    return type(full)(**kwargs)


def subtract_results(full: CoreResult, warm: CoreResult) -> CoreResult:
    """``full - warm``: the warm prefix's contribution removed.

    Exact for :data:`EXACT_EVENTS` (the warm prefix commits identically
    in both runs); per-cycle counts carry the warm run's drain tail as
    a bounded error, and rare negatives clamp to zero.
    """
    extra = {name: max(0.0, value - warm.extra.get(name, 0.0))
             for name, value in full.extra.items()}
    return CoreResult(
        workload=full.workload,
        config_name=full.config_name,
        core=full.core,
        cycles=max(0, full.cycles - warm.cycles),
        instret=full.instret - warm.instret,
        events=_subtract_counts(full.events, warm.events),
        lane_events=_subtract_lanes(full.lane_events, warm.lane_events),
        commit_width=full.commit_width,
        issue_width=full.issue_width,
        l1i_stats=_subtract_stats(full.l1i_stats, warm.l1i_stats),
        l1d_stats=_subtract_stats(full.l1d_stats, warm.l1d_stats),
        l2_stats=_subtract_stats(full.l2_stats, warm.l2_stats),
        predictor_stats=_subtract_stats(full.predictor_stats,
                                        warm.predictor_stats),
        extra=extra,
    )


def _pin_retire_counts(result: CoreResult, n_instr: int) -> CoreResult:
    """Correct end-of-stream phantom-commit inflation on window runs.

    A trace sliced mid-stream can end while a mispredict recovery is in
    flight; BOOM's frontend then fetches wrong-path *phantom* µops
    (``u_dyn = -1``) that reach commit before the flush and inflate the
    retire counters past the trace length.  A full registry trace ends
    at its exit ``ecall``, so the ``run_core`` oracle never sees this —
    it is purely a window-truncation artifact.  The window's
    architectural instruction count is known by construction, so pin
    ``instret`` (and the retire-count events) to it.
    """
    delta = result.instret - n_instr
    if delta > 0:
        events = dict(result.events)
        for name in ("instr_retired", "uops_retired"):
            if name in events:
                events[name] = max(0, events[name] - delta)
        result.events = events
        result.instret = n_instr
    return result


def measure_window(window_trace: ColumnarTrace, warm_len: int,
                   config: CoreConfig) -> CoreResult:
    """Measure one window whose first *warm_len* instructions are warmup.

    *window_trace* spans ``[start - warm_len, stop)`` of the parent
    trace.  Both runs use fresh cores (state is never shared between
    windows) over the same shared columns.
    """
    full = _pin_retire_counts(
        make_core(config).run(window_trace), len(window_trace))
    if warm_len <= 0:
        return full
    warm_trace = window_trace.slice(0, warm_len)
    warm = _pin_retire_counts(
        make_core(config).run(warm_trace), warm_len)
    return subtract_results(full, warm)


# ----------------------------------------------------------------------
# Stitching and extrapolation


def _sum_stats(parts):
    first = parts[0]
    kwargs = {f.name: sum(getattr(p, f.name) for p in parts)
              for f in dataclass_fields(first)}
    return type(first)(**kwargs)


def _scale_stats(stats, factor: float):
    kwargs = {f.name: int(round(getattr(stats, f.name) * factor))
              for f in dataclass_fields(stats)}
    return type(stats)(**kwargs)


def stitch_results(workload: str, parts: Sequence[CoreResult]) -> CoreResult:
    """Sum per-window measurements into a whole-run :class:`CoreResult`."""
    if not parts:
        raise ValueError("nothing to stitch")
    first = parts[0]
    events: Dict[str, int] = {}
    lane_events: Dict[str, List[int]] = {}
    extra: Dict[str, float] = {}
    for part in parts:
        for name, value in part.events.items():
            events[name] = events.get(name, 0) + value
        for name, lanes in part.lane_events.items():
            merged = lane_events.setdefault(name, [])
            while len(merged) < len(lanes):
                merged.append(0)
            for i, value in enumerate(lanes):
                merged[i] += value
        for name, value in part.extra.items():
            extra[name] = extra.get(name, 0.0) + value
    return CoreResult(
        workload=workload,
        config_name=first.config_name,
        core=first.core,
        cycles=sum(p.cycles for p in parts),
        instret=sum(p.instret for p in parts),
        events={k: v for k, v in events.items() if v},
        lane_events=lane_events,
        commit_width=first.commit_width,
        issue_width=first.issue_width,
        l1i_stats=_sum_stats([p.l1i_stats for p in parts]),
        l1d_stats=_sum_stats([p.l1d_stats for p in parts]),
        l2_stats=_sum_stats([p.l2_stats for p in parts]),
        predictor_stats=_sum_stats([p.predictor_stats for p in parts]),
        extra=extra,
    )


def _error_bars(parts: Sequence[CoreResult]) -> Dict[str, Dict[str, float]]:
    """Per-TMA-slot mean/stderr/95% bounds from cross-window variance."""
    from ..core.tma import TOP_LEVEL, compute_tma

    fractions: Dict[str, List[float]] = {}
    for part in parts:
        if part.cycles <= 0 or part.instret <= 0:
            continue
        tma = compute_tma(part)
        for name in TOP_LEVEL:
            fractions.setdefault(name, []).append(tma.level1[name])
    bars: Dict[str, Dict[str, float]] = {}
    for name, values in fractions.items():
        k = len(values)
        mean = sum(values) / k
        var = (sum((v - mean) ** 2 for v in values) / (k - 1)
               if k > 1 else 0.0)
        stderr = math.sqrt(var / k)
        bars[name] = {
            "mean": mean,
            "stderr": stderr,
            "low": max(0.0, mean - 1.96 * stderr),
            "high": min(1.0, mean + 1.96 * stderr),
        }
    return bars


def extrapolate_sampled(stitched: CoreResult, plan: WindowPlan,
                        parts: Sequence[CoreResult]) -> CoreResult:
    """Scale sampled-span totals to whole-trace estimates.

    ``instret`` is pinned to the true trace length; every other count
    scales by the coverage factor.  The result is labeled
    ``sampled=True`` and carries per-slot error bars in ``windowed``.
    """
    measured = plan.measured_instructions
    if measured <= 0:
        raise ValueError("sampled plan measured no instructions")
    factor = plan.n / measured
    events = {k: int(round(v * factor)) for k, v in stitched.events.items()}
    lane_events = {k: [int(round(x * factor)) for x in v]
                   for k, v in stitched.lane_events.items()}
    extra = {k: v * factor for k, v in stitched.extra.items()}
    return CoreResult(
        workload=stitched.workload,
        config_name=stitched.config_name,
        core=stitched.core,
        cycles=int(round(stitched.cycles * factor)),
        instret=plan.n,
        events={k: v for k, v in events.items() if v},
        lane_events=lane_events,
        commit_width=stitched.commit_width,
        issue_width=stitched.issue_width,
        l1i_stats=_scale_stats(stitched.l1i_stats, factor),
        l1d_stats=_scale_stats(stitched.l1d_stats, factor),
        l2_stats=_scale_stats(stitched.l2_stats, factor),
        predictor_stats=_scale_stats(stitched.predictor_stats, factor),
        extra=extra,
        sampled=True,
        windowed=None,  # attached by the caller with the full metadata
    )


# ----------------------------------------------------------------------
# Stitch-identity gate


def stitch_deviations(stitched: CoreResult, oracle: CoreResult
                      ) -> Dict[str, Dict[str, int]]:
    """Per-counter ``{stitched, oracle, delta}`` report (cycles included)."""
    report: Dict[str, Dict[str, int]] = {}
    names = stitched.events.keys() | oracle.events.keys()
    for name in sorted(names):
        s = stitched.events.get(name, 0)
        o = oracle.events.get(name, 0)
        report[name] = {"stitched": s, "oracle": o, "delta": s - o}
    report["cycles"] = {"stitched": stitched.cycles, "oracle": oracle.cycles,
                        "delta": stitched.cycles - oracle.cycles}
    return report


def assert_stitch_equivalent(stitched: CoreResult, oracle: CoreResult,
                             windows: int, *, rel_tol: float = REL_TOL,
                             abs_per_window: int = ABS_PER_WINDOW) -> None:
    """Gate a stitched result against the full-run oracle.

    Every :data:`EXACT_EVENTS` counter must match bit-for-bit;
    ``instret`` and the :data:`RETIRE_EVENTS` counters must match
    within :data:`RETIRE_EDGE_SLACK` (the oracle's own end-of-stream
    phantom commits); cycles and all other events must sit within
    ``max(rel_tol * oracle, abs_per_window * windows)``.  Raises
    ``AssertionError`` naming every violated counter.
    """
    errors: List[str] = []
    if abs(stitched.instret - oracle.instret) > RETIRE_EDGE_SLACK:
        errors.append(f"instret: stitched {stitched.instret} != "
                      f"oracle {oracle.instret} "
                      f"(slack {RETIRE_EDGE_SLACK})")
    for name, row in stitch_deviations(stitched, oracle).items():
        delta = row["delta"]
        if name in EXACT_EVENTS:
            if delta:
                errors.append(
                    f"{name}: exact-class event off by {delta} "
                    f"(stitched {row['stitched']}, oracle {row['oracle']})")
            continue
        if name in RETIRE_EVENTS:
            if abs(delta) > RETIRE_EDGE_SLACK:
                errors.append(
                    f"{name}: retire-class event off by {delta}, beyond "
                    f"the end-of-stream phantom slack {RETIRE_EDGE_SLACK} "
                    f"(stitched {row['stitched']}, oracle {row['oracle']})")
            continue
        bound = max(rel_tol * row["oracle"], abs_per_window * windows)
        if abs(delta) > bound:
            errors.append(
                f"{name}: |{delta}| exceeds tolerance {bound:.1f} "
                f"(stitched {row['stitched']}, oracle {row['oracle']})")
    if errors:
        raise AssertionError(
            "stitched result diverged from the oracle:\n  "
            + "\n  ".join(errors))


# ----------------------------------------------------------------------
# Parallel execution


def _tick(progress, message: str) -> None:
    # ``progress`` is either the CLI's boolean (print ticks to stderr)
    # or a callable sink — the service streams per-window ticks to SSE
    # subscribers by passing its event-journal hook here.
    if callable(progress):
        progress(message)
    elif progress:
        print(message, file=sys.stderr, flush=True)


def _window_task(tag, static_blob: bytes, window_blob: bytes, warm_len: int,
                 config: CoreConfig):
    """Pool-worker entry: one window, run-and-subtract, exact codec.

    *tag* is any picklable identity the caller uses to route the result
    (a window index, or a ``(point key, index)`` pair for grid runs).
    The static blob is parsed once per worker and shared across every
    window of the same trace (digest-keyed cache in the codec).
    """
    from ..tools.cache import serialize_result

    begin = time.perf_counter()
    trace = unpack_window(static_blob, window_blob)
    result = measure_window(trace, warm_len, config)
    return tag, serialize_result(result), time.perf_counter() - begin


def _resolve_workers(workers: Optional[int], tasks: int) -> int:
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, min(int(workers), tasks))


def _run_window_tasks(
    trace: ColumnarTrace,
    tasks: Sequence[Tuple[object, int, int, int, CoreConfig]],
    workers: Optional[int],
    progress: bool,
    executor_factory=None,
    on_result: Optional[Callable[[object, CoreResult, float], None]] = None,
) -> Tuple[Dict[object, Tuple[CoreResult, float]], Optional[str]]:
    """Execute window tasks, in a pool when it pays, inline otherwise.

    Each task is ``(tag, warm_start, start, stop, config)``.  Pool
    failures fall back to finishing the remaining tasks inline, like
    the batch engine.  Returns ``({tag: (measured result, wall_s)},
    fallback_reason)``; the reason is None unless the pool failed.
    """
    from ..tools import cache as result_cache
    from ..tools.pool import EXECUTOR_FACTORIES

    done: Dict[object, Tuple[CoreResult, float]] = {}
    total = len(tasks)

    def note(tag, result: CoreResult, wall: float, start: int,
             stop: int) -> None:
        done[tag] = (result, wall)
        _tick(progress,
              f"[windowed] window {len(done)}/{total} ({tag}): "
              f"{stop - start} instr, {wall:.2f}s")
        if on_result is not None:
            on_result(tag, result, wall)

    count = _resolve_workers(workers, total)
    remaining = list(tasks)
    fallback_reason: Optional[str] = None
    if count > 1:
        static_blob = trace.pack_static()
        factory = executor_factory or EXECUTOR_FACTORIES["process"]
        try:
            with factory(count) as pool:
                futures = {
                    pool.submit(
                        _window_task, tag,
                        static_blob, trace.pack_window(warm_start, stop),
                        start - warm_start, config): (tag, start, stop)
                    for tag, warm_start, start, stop, config in tasks
                }
                for future in as_completed(futures):
                    tag, start, stop = futures[future]
                    _, payload, wall = future.result()
                    note(tag, result_cache.deserialize_result(payload),
                         wall, start, stop)
        except Exception as exc:  # noqa: BLE001 - any pool failure: go inline
            fallback_reason = f"{type(exc).__name__}: {exc}"
            remaining = [t for t in tasks if t[0] not in done]
        else:
            remaining = []
    for tag, warm_start, start, stop, config in remaining:
        begin = time.perf_counter()
        window_trace = trace.slice(warm_start, stop)
        result = measure_window(window_trace, start - warm_start, config)
        note(tag, result, time.perf_counter() - begin, start, stop)
    return done, fallback_reason


def _window_tasks(plan: WindowPlan, config: CoreConfig,
                  tag: Callable[[int], object]
                  ) -> List[Tuple[object, int, int, int, CoreConfig]]:
    return [
        (tag(i), max(0, start - plan.warmup), start, stop, config)
        for i, (start, stop) in enumerate(plan.spans)
    ]


def windowed_metadata(plan: WindowPlan, walls: Sequence[float]
                      ) -> Dict[str, object]:
    """The JSON-able ``CoreResult.windowed`` metadata block."""
    return {
        "windows": plan.windows,
        "warmup": plan.warmup,
        "sampled": plan.sampled,
        "spans": [[start, stop] for start, stop in plan.spans],
        "window_wall_s": [round(w, 6) for w in walls],
        "coverage": round(plan.coverage, 6),
    }


def run_windowed(workload: str, config: CoreConfig, *, windows: int,
                 scale: float = 1.0, warmup: Optional[int] = None,
                 sampled: bool = False,
                 use_cache: bool = True, workers: Optional[int] = None,
                 progress: bool = False, executor_factory=None) -> CoreResult:
    """Windowed (or sampled) replacement for a single ``run_core``.

    Returns a whole-run :class:`CoreResult` carrying ``windowed``
    metadata (plan, per-window wall times, coverage; error bars when
    sampled).  Results are cached under
    :func:`repro.tools.cache.windowed_cache_key`, which folds the
    window plan so windowed entries never collide with plain runs or
    with each other across plans/modes.
    """
    from ..tools import cache as result_cache
    from ..workloads import build_trace

    # The key normalizes the request without touching the trace, so a
    # cache hit skips even the functional-execution/trace-fetch cost.
    key = result_cache.windowed_cache_key(
        workload, scale, config, windows,
        normalized_warmup(windows, warmup, sampled), sampled)
    if use_cache:
        cached = result_cache.load(key)
        if cached is not None:
            return cached
    trace = as_columnar(build_trace(workload, scale=scale))
    plan = plan_windows(len(trace), windows, warmup=warmup, sampled=sampled)

    begin = time.perf_counter()
    done, fallback_reason = _run_window_tasks(
        trace, _window_tasks(plan, config, tag=lambda i: i), workers,
        progress, executor_factory)
    parts = [done[i][0] for i in range(len(plan.spans))]
    walls = [done[i][1] for i in range(len(plan.spans))]

    stitched = stitch_results(workload, parts)
    metadata = windowed_metadata(plan, walls)
    metadata["wall_s"] = round(time.perf_counter() - begin, 6)
    if fallback_reason is not None:
        metadata["fallback_reason"] = fallback_reason
    if plan.sampled:
        result = extrapolate_sampled(stitched, plan, parts)
        metadata["error_bars"] = _error_bars(parts)
    else:
        result = stitched
    result.windowed = metadata
    if use_cache:
        result_cache.store(key, result)
    return result


def run_windowed_points(
    workload: str, points: Sequence[GridPoint], *, windows: int,
    scale: float = 1.0, warmup: Optional[int] = None, sampled: bool = False,
    workers: Optional[int] = None,
    progress: bool = False, executor_factory=None,
    note: Optional[Callable[[GridPoint, CoreResult], None]] = None,
) -> Dict[str, CoreResult]:
    """Grid x windows: every (point, window) pair is one pool work unit.

    This is the scheduling unit that finally saturates multi-core
    runners on small grids: a grid of P points over K windows exposes
    P*K independent tasks instead of P, so the pool never idles behind
    one long serial simulation.  The static blob ships once per worker
    regardless of P or K.  *note* fires as each point's stitched result
    completes (the batch engine uses it for cache/checkpoint writes).
    """
    from ..workloads import build_trace

    trace = as_columnar(build_trace(workload, scale=scale))
    plan = plan_windows(len(trace), windows, warmup=warmup, sampled=sampled)
    by_point = {point.key: point for point in points}

    tasks: List[Tuple[object, int, int, int, CoreConfig]] = []
    for point in points:
        tasks.extend(_window_tasks(
            plan, point.config, tag=lambda i, key=point.key: (key, i)))

    begin = time.perf_counter()
    done, fallback_reason = _run_window_tasks(trace, tasks, workers,
                                              progress, executor_factory)
    results: Dict[str, CoreResult] = {}
    for point in points:
        parts = [done[(point.key, i)][0] for i in range(len(plan.spans))]
        walls = [done[(point.key, i)][1] for i in range(len(plan.spans))]
        stitched = stitch_results(workload, parts)
        metadata = windowed_metadata(plan, walls)
        metadata["wall_s"] = round(time.perf_counter() - begin, 6)
        if fallback_reason is not None:
            metadata["fallback_reason"] = fallback_reason
        if plan.sampled:
            result = extrapolate_sampled(stitched, plan, parts)
            metadata["error_bars"] = _error_bars(parts)
        else:
            result = stitched
        result.windowed = metadata
        results[point.key] = result
        if note is not None:
            note(by_point[point.key], result)
    return results
