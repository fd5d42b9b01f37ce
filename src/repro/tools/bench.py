"""Benchmark harness with a regression gate: ``repro-tma bench``.

Runs the tier-2 performance set — the functional layer (interpreted
oracle vs. closure-compiled engine), the trace-memoization tiers
(cold vs. warm), the timing layer (batched grid and windowed engines),
and the (workload x config) sweep (serial vs. parallel) — and writes a
``BENCH_*.json`` snapshot of:

- wall-clock and runs/sec for every mode,
- the compiled functional engine's speedup over the interpreter (with
  a bit-identical trace check),
- the warm trace-cache hit rate,
- the batched multi-config engine's wall clock against per-config
  single runs (grid-of-4, inline and pooled, with a bit-identical
  oracle check per grid point),
- the windowed engine's stitch-identity gate against the ``run_core``
  oracle, its sampled-mode extrapolation error, and its speedup over a
  serial run of a huge-tier trace (per-core efficiency gated),
- the parallel sweep's speedup over serial and its per-worker
  efficiency,
- whether parallel and serial sweeps merged to identical results.

The regression gate compares the *ratio* metrics (speedups,
efficiency) against the previous snapshot with a configurable
threshold.  Ratios are used because they are approximately
machine-independent: absolute runs/sec differ wildly across CI
runners, but "the batch pass beats the single runs it replaces" holds
anywhere the same interpreter runs, so a drop means the code
regressed, not the machine.  Absolute numbers are recorded for
humans, never gated.
Raw parallel *speedup* is deliberately not gated either: on a 1-CPU
runner 4 workers legitimately score < 1.0 (BENCH_PR2 recorded 0.894),
so the gate uses per-core ``parallel.efficiency`` instead, which is
already normalized by ``effective_cores``.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import re
import shutil
import tempfile
import time
from dataclasses import astuple
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cores.configs import ROCKET
from ..isa import execute, execute_compiled
from ..pmu.harness import PerfHarness
from ..reliability.runner import ResilientRunner
from ..workloads import (
    build_program,
    build_trace,
    clear_caches,
    trace_cache,
    workload_names,
)
from .parallel import ParallelSweepRunner

#: Snapshot written by this PR's harness; bump per PR with a baseline.
DEFAULT_OUTPUT = "BENCH_PR10.json"

#: Ratio metrics the gate enforces ("section.key" paths).  Anything
#: not listed here is informational only.  ``parallel.speedup`` is
#: intentionally absent: absolute pool speedup is a property of the
#: runner's core count (0.894 on a 1-CPU runner is correct behaviour),
#: so the gate enforces the per-core ``parallel.efficiency`` instead.
GATED_METRICS = (
    "functional.speedup",
    "timing.batch.speedup",
    "timing.windowed.efficiency",
    "parallel.efficiency",
)

#: Workloads for the quick (CI) variant: a cross-section of the micro
#: suite that exercises caches, branches, and serial dependencies.
QUICK_WORKLOADS = (
    "dhrystone",
    "median",
    "qsort",
    "towers",
    "vvadd",
    "spmv",
    "mergesort",
    "multiply",
)


def _fingerprint() -> Dict[str, str]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpus": str(os.cpu_count() or 1),
    }


def _outcome_digest(outcome) -> Tuple:
    """Hashable identity of one sweep outcome for equivalence checks."""
    measurement = outcome.measurement
    if measurement is None:
        measured = None
    else:
        measured = (
            tuple(sorted(measurement.events.items())),
            measurement.cycles,
            measurement.instret,
            measurement.passes,
        )
    return (
        outcome.workload,
        outcome.config_name,
        outcome.status,
        outcome.attempts,
        measured,
    )


def _core_result_digest(result) -> Tuple:
    """Every observable field of one ``CoreResult``."""
    return (
        result.cycles,
        result.instret,
        tuple(sorted(result.events.items())),
        tuple(sorted((k, tuple(v)) for k, v in result.lane_events.items())),
        astuple(result.l1i_stats),
        astuple(result.l1d_stats),
        astuple(result.l2_stats),
        astuple(result.predictor_stats),
        tuple(sorted(result.extra.items())),
    )


def _bench_timing(scale: float, workers: int, inject_slowdown: float) -> Dict:
    """Timing layer: the batched grid engine and the windowed engine."""
    batch = _bench_batch(scale, workers, inject_slowdown)
    windowed = _bench_windowed(workers)
    return {
        "batch": batch,
        "windowed": windowed,
        "identical": batch["identical"],
    }


#: Workload basket for the batched-grid section: one FP kernel and one
#: branchy recursive workload, so sharing is measured across both
#: pipeline personalities without making the section dominate the run.
BATCH_WORKLOADS = ("mm", "towers")


def _bench_batch(
    scale: float,
    workers: int,
    inject_slowdown: float = 0.0,
) -> Dict[str, float]:
    """Batched multi-config engine vs. per-config single runs.

    Measures the default grid-of-4 three ways over the same workload
    basket, against an isolated cache with the disk trace tier
    pre-seeded (the steady state a sweep worker sees):

    - ``singles``: one :func:`~repro.tools.tma_tool.run_core` per grid
      point, the memory trace tier cleared before each config so every
      point pays its own trace fetch and descriptor compile — exactly
      what N independent per-config engines pay.
    - ``batch`` (inline): one :func:`~repro.cores.batch.run_batch` pass
      per workload with ``workers=1``.  The gated ``speedup`` ratio
      (``singles_wall / batch_wall``) isolates the sharing machinery —
      trace fetched once, descriptor tables compiled once, TAGE fold
      memos shared — with no parallelism in the numerator, so it is
      machine-independent and must never fall materially below 1.0
      (batching must not cost more than the runs it replaces).
      ``inject_slowdown`` adds that fraction of the singles' wall time,
      spread over the inline runs, to self-test the gate.
    - ``pool``: the same pass with ``workers`` processes, which is how
      ``repro-tma sweep --grid`` actually runs.  ``vs_single``
      (``pool_wall / max_single_wall``) is the acceptance target
      (< 2.0) and is honest about hardware: on a 1-CPU runner the pool
      cannot beat it, so ``target_met`` is recorded alongside
      ``effective_cores`` rather than gated across heterogeneous
      runners.

    ``identical`` is the full field-by-field ``CoreResult`` comparison
    of every batch point against its single-run oracle.
    """
    from ..cores.batch import DEFAULT_GRID, parse_grid, run_batch
    from .tma_tool import run_core

    points = parse_grid(DEFAULT_GRID)
    names = BATCH_WORKLOADS
    saved = os.environ.get("REPRO_CACHE_DIR")
    tmp = tempfile.mkdtemp(prefix="repro-bench-batch-")
    os.environ["REPRO_CACHE_DIR"] = tmp
    try:
        clear_caches()
        for name in names:  # seed the disk trace tier
            build_trace(name, scale=scale)

        single_wall: Dict[str, float] = {}
        singles = {}
        for point in points:
            trace_cache.clear_memory()
            start = time.perf_counter()
            for name in names:
                singles[(name, point.key)] = run_core(
                    name, point.config, scale=scale, use_cache=False
                )
            single_wall[point.key] = time.perf_counter() - start

        per_run_penalty = inject_slowdown * sum(single_wall.values()) / len(names)
        trace_cache.clear_memory()
        start = time.perf_counter()
        batches = {}
        for name in names:
            batches[name] = run_batch(
                name, points, scale=scale, use_cache=False, workers=1
            )
            if per_run_penalty:
                time.sleep(per_run_penalty)
        batch_s = time.perf_counter() - start

        trace_cache.clear_memory()
        start = time.perf_counter()
        pooled = {
            name: run_batch(
                name, points, scale=scale, use_cache=False, workers=workers
            )
            for name in names
        }
        pool_s = time.perf_counter() - start

        identical = all(
            _core_result_digest(batches[name].result_for(point.key))
            == _core_result_digest(singles[(name, point.key)])
            and _core_result_digest(pooled[name].result_for(point.key))
            == _core_result_digest(singles[(name, point.key)])
            for name in names
            for point in points
        )
        singles_s = sum(single_wall.values())
        max_single_s = max(single_wall.values())
        vs_single = pool_s / max_single_s if max_single_s else 0.0
        effective_cores = max(1, min(workers, os.cpu_count() or 1))
        return {
            "workloads": len(names),
            "points": len(points),
            "workers": workers,
            "effective_cores": effective_cores,
            "singles_wall_s": round(singles_s, 4),
            "max_single_wall_s": round(max_single_s, 4),
            "batch_wall_s": round(batch_s, 4),
            "pool_wall_s": round(pool_s, 4),
            "trace_fetches": sum(b.stats.trace_fetches for b in batches.values()),
            "tables_shared": sum(b.stats.tables_shared for b in batches.values()),
            "fold_caches_shared": sum(
                b.stats.fold_caches_shared for b in batches.values()
            ),
            "speedup": round(singles_s / batch_s, 3) if batch_s else 0.0,
            "vs_single": round(vs_single, 3),
            "target_met": bool(vs_single < 2.0),
            "identical": identical,
        }
    finally:
        if saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved
        clear_caches()
        shutil.rmtree(tmp, ignore_errors=True)


#: Workload basket for the windowed stitch/sampled gates: one FP kernel
#: and one branchy recursive workload, mirroring the batch basket, at a
#: fixed small scale so the oracle + stitched + sampled triple stays
#: CI-cheap in both bench modes.
WINDOWED_GATE_WORKLOADS = ("mm", "towers")
WINDOWED_GATE_SCALE = 0.3

#: Huge-tier workload for the windowed speedup measurement: only the
#: windowed/sampled paths can run the huge tier through ``run_core``,
#: so the serial baseline drives the core directly over the same trace.
WINDOWED_HUGE_WORKLOAD = "huge-walk"
WINDOWED_HUGE_SCALE = 0.5

#: Sampled-mode acceptance bound: the extrapolated TMA level-1 fraction
#: of every top-level slot must sit within this absolute error of the
#: full-run oracle on the gate basket.  The basket's small
#: phase-heterogeneous traces are sampling's worst case (mm's init
#: loops vs. FP kernel score ~0.11 on the retiring slot,
#: deterministically); huge-tier traces land well under 0.02.  A broken
#: extrapolation (wrong coverage factor, dropped spans) lands far past
#: the bound.
SAMPLED_ERROR_BOUND = 0.15


def _bench_windowed(workers: int) -> Dict[str, float]:
    """Windowed engine: stitch-identity gate, sampled error, speedup.

    Three measurements against an isolated cache (``use_cache=False``
    throughout, so every run pays full simulation):

    - ``stitch_ok`` (hard gate): exact-mode windowed runs on the gate
      basket, stitched and checked against the ``run_core`` oracle with
      :func:`~repro.cores.windowed.assert_stitch_equivalent` at the
      calibrated ``GATE_WARMUP`` — bit-identical per-instruction
      counters, retire counters within the documented edge slack,
      everything else inside the calibrated tolerance.
    - ``sampled.error`` (hard gate via ``sampled_ok``): sampled-mode
      runs on the same basket; the worst absolute TMA level-1 slot
      deviation from the oracle must stay under
      :data:`SAMPLED_ERROR_BOUND`, and every sampled result must carry
      the ``sampled=True`` label and per-slot error bars.
    - ``speedup``: a huge-tier trace simulated serially (driving the
      core directly — ``run_core`` refuses huge workloads outside the
      windowed paths) vs. ``run_windowed`` with ``workers`` processes.
      Like the pool sections, raw speedup is a property of the runner's
      core count (exact mode on 1 CPU legitimately scores < 1.0 — it
      pays ``(K-1) * warmup`` extra instructions with no parallelism to
      hide them), so the gated ratio is per-core ``efficiency`` and
      ``target_met`` records the honest verdict alongside
      ``effective_cores``.  ``sampled_speedup`` shows the other lever:
      coverage-scaled sampling beats serial even on one core.
    """
    from ..core.tma import TOP_LEVEL, compute_tma
    from ..cores.rocket import RocketCore
    from ..cores.windowed import GATE_WARMUP, assert_stitch_equivalent, run_windowed
    from .tma_tool import run_core

    windows = 4
    saved = os.environ.get("REPRO_CACHE_DIR")
    tmp = tempfile.mkdtemp(prefix="repro-bench-windowed-")
    os.environ["REPRO_CACHE_DIR"] = tmp
    try:
        clear_caches()
        stitch_ok = True
        stitch_error = ""
        sampled_errors: List[float] = []
        sampled_labeled = True
        for name in WINDOWED_GATE_WORKLOADS:
            oracle = run_core(name, ROCKET, scale=WINDOWED_GATE_SCALE, use_cache=False)
            stitched = run_windowed(
                name,
                ROCKET,
                windows=windows,
                scale=WINDOWED_GATE_SCALE,
                warmup=GATE_WARMUP,
                use_cache=False,
                workers=1,
            )
            try:
                assert_stitch_equivalent(stitched, oracle, windows)
            except AssertionError as exc:
                stitch_ok = False
                stitch_error = f"{name}: {exc}"
            sampled = run_windowed(
                name,
                ROCKET,
                windows=windows,
                scale=WINDOWED_GATE_SCALE,
                sampled=True,
                use_cache=False,
                workers=1,
            )
            bars = bool((sampled.windowed or {}).get("error_bars"))
            sampled_labeled = sampled_labeled and bool(sampled.sampled) and bars
            oracle_tma = compute_tma(oracle)
            sampled_tma = compute_tma(sampled)
            worst = max(
                abs(sampled_tma.fraction(slot) - oracle_tma.fraction(slot))
                for slot in TOP_LEVEL
            )
            sampled_errors.append(worst)
        sampled_error = max(sampled_errors)
        sampled_ok = bool(sampled_labeled and sampled_error <= SAMPLED_ERROR_BOUND)

        # Speedup on the huge tier: serial core drive vs. windowed pool.
        trace = build_trace(WINDOWED_HUGE_WORKLOAD, scale=WINDOWED_HUGE_SCALE)
        start = time.perf_counter()
        serial_result = RocketCore(ROCKET).run(trace)
        serial_s = time.perf_counter() - start

        start = time.perf_counter()
        exact = run_windowed(
            WINDOWED_HUGE_WORKLOAD,
            ROCKET,
            windows=windows,
            scale=WINDOWED_HUGE_SCALE,
            use_cache=False,
            workers=workers,
        )
        exact_s = time.perf_counter() - start

        start = time.perf_counter()
        sampled_huge = run_windowed(
            WINDOWED_HUGE_WORKLOAD,
            ROCKET,
            windows=windows,
            scale=WINDOWED_HUGE_SCALE,
            sampled=True,
            use_cache=False,
            workers=workers,
        )
        sampled_s = time.perf_counter() - start

        speedup = serial_s / exact_s if exact_s else 0.0
        sampled_speedup = serial_s / sampled_s if sampled_s else 0.0
        effective_cores = max(1, min(workers, os.cpu_count() or 1))
        efficiency = speedup / effective_cores
        coverage = (sampled_huge.windowed or {}).get("coverage", 0.0)
        rel_err = 0.0
        if serial_result.cycles:
            rel_err = abs(exact.cycles - serial_result.cycles) / serial_result.cycles
        return {
            "workloads": len(WINDOWED_GATE_WORKLOADS),
            "windows": windows,
            "gate_warmup": GATE_WARMUP,
            "workers": workers,
            "effective_cores": effective_cores,
            "stitch_ok": stitch_ok,
            "stitch_error": stitch_error,
            "huge_workload": WINDOWED_HUGE_WORKLOAD,
            "huge_instructions": len(trace),
            "huge_cycles_rel_err": round(rel_err, 6),
            "serial_wall_s": round(serial_s, 4),
            "windowed_wall_s": round(exact_s, 4),
            "sampled_wall_s": round(sampled_s, 4),
            "speedup": round(speedup, 3),
            "efficiency": round(efficiency, 3),
            "target_met": bool(efficiency >= 0.70),
            "sampled_speedup": round(sampled_speedup, 3),
            "sampled_coverage": round(coverage, 4),
            "sampled": {
                "error": round(sampled_error, 6),
                "bound": SAMPLED_ERROR_BOUND,
                "labeled": bool(sampled_labeled),
                "sampled_ok": sampled_ok,
            },
        }
    finally:
        if saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved
        clear_caches()
        shutil.rmtree(tmp, ignore_errors=True)


def _dyninst_digest(inst) -> Tuple:
    """Every committed field of one dynamic instruction."""
    return (
        inst.index,
        inst.pc,
        inst.cls,
        inst.dest,
        inst.srcs,
        inst.latency,
        inst.next_pc,
        inst.mnemonic,
        inst.mem_addr,
        inst.mem_width,
        inst.is_load,
        inst.is_store,
        inst.is_branch,
        inst.taken,
        inst.is_fence,
        inst.csr,
        inst.csr_write,
    )


def _traces_identical(a, b) -> bool:
    """Bit-identical committed-path equality of two trace objects."""
    if (
        len(a) != len(b)
        or a.exit_code != b.exit_code
        or a.halt_reason != b.halt_reason
        or list(a.final_int_regs) != list(b.final_int_regs)
    ):
        return False
    return all(_dyninst_digest(x) == _dyninst_digest(y) for x, y in zip(a, b))


def _bench_functional(
    workloads: Sequence[str],
    scale: float,
) -> Dict[str, float]:
    """Functional layer: interpreted oracle vs. closure-compiled engine.

    Both engines execute the same assembled programs directly (no
    memoization), so the ratio isolates the executor itself.  The
    compiled pass includes ``compile_program`` time — that is what a
    cold run actually pays.  ``identical`` is a full bit-identical
    comparison of every committed dynamic instruction.
    """
    programs = [build_program(name, scale=scale) for name in workloads]

    start = time.perf_counter()
    interpreted = [execute(program) for program in programs]
    interpreted_s = time.perf_counter() - start

    start = time.perf_counter()
    compiled = [execute_compiled(program) for program in programs]
    compiled_s = time.perf_counter() - start

    identical = all(_traces_identical(i, c) for i, c in zip(interpreted, compiled))
    instructions = sum(len(trace) for trace in interpreted)
    return {
        "workloads": len(workloads),
        "instructions": instructions,
        "interpreted_wall_s": round(interpreted_s, 4),
        "compiled_wall_s": round(compiled_s, 4),
        "interpreted_runs_per_s": round(len(workloads) / interpreted_s, 3),
        "compiled_runs_per_s": round(len(workloads) / compiled_s, 3),
        "interpreted_kinst_per_s": round(instructions / interpreted_s / 1e3, 1),
        "compiled_kinst_per_s": round(instructions / compiled_s / 1e3, 1),
        "speedup": round(interpreted_s / compiled_s, 3),
        "identical": identical,
    }


def _bench_trace_cache(
    workloads: Sequence[str],
    scale: float,
) -> Dict[str, float]:
    """Memoization tiers: cold execute, warm disk reload, warm memory.

    Runs against an isolated temporary cache directory so the numbers
    are reproducible regardless of what earlier sections (or earlier
    bench runs) left in the real cache.
    """
    saved = os.environ.get("REPRO_CACHE_DIR")
    tmp = tempfile.mkdtemp(prefix="repro-bench-traces-")
    os.environ["REPRO_CACHE_DIR"] = tmp
    try:
        clear_caches()
        start = time.perf_counter()
        for name in workloads:
            build_trace(name, scale=scale)
        cold_s = time.perf_counter() - start
        cold = trace_cache.stats()

        trace_cache.clear_memory()  # keep the disk tier, drop memory
        start = time.perf_counter()
        for name in workloads:
            build_trace(name, scale=scale)
        disk_s = time.perf_counter() - start
        disk = trace_cache.stats()

        start = time.perf_counter()
        for name in workloads:
            build_trace(name, scale=scale)
        mem_s = time.perf_counter() - start
        warm = trace_cache.stats_delta(disk)

        # Hit rate over the two warm passes (disk reload + memory); the
        # cold pass is by definition all misses and not counted.  The
        # clear_memory() between cold and disk passes zeroed the
        # counters, so `disk` covers exactly the disk pass.
        warm_hits = (
            disk["disk_hits"]
            + disk["mem_hits"]
            + warm["mem_hits"]
            + warm["disk_hits"]
        )
        warm_misses = disk["misses"] + warm["misses"]
        warm_lookups = warm_hits + warm_misses
        return {
            "workloads": len(workloads),
            "cold_wall_s": round(cold_s, 4),
            "disk_wall_s": round(disk_s, 4),
            "mem_wall_s": round(mem_s, 4),
            "cold_misses": cold["misses"],
            "disk_hits": disk["disk_hits"],
            "mem_hits": warm["mem_hits"],
            "trace_cache_hit_rate": (
                round(warm_hits / warm_lookups, 3) if warm_lookups else 0.0
            ),
            "disk_speedup": round(cold_s / disk_s, 3) if disk_s else 0.0,
            "mem_speedup": round(cold_s / mem_s, 3) if mem_s else 0.0,
        }
    finally:
        if saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved
        clear_caches()
        shutil.rmtree(tmp, ignore_errors=True)


def _bench_parallel(
    workloads: Sequence[str],
    scale: float,
    workers: int,
) -> Dict[str, float]:
    """Sweep the grid serially and in parallel; compare wall clock.

    Caching is off for both so every pair pays the full simulation on
    both sides; merged results must be identical regardless of engine.
    """
    configs = [ROCKET]

    def make_runner() -> ResilientRunner:
        harness = PerfHarness(core="rocket")
        return ResilientRunner(harness=harness, scale=scale, use_cache=False)

    start = time.perf_counter()
    serial_engine = ParallelSweepRunner(runner=make_runner(), max_workers=1)
    serial = serial_engine.run_grid(workloads, configs)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    pool_engine = ParallelSweepRunner(runner=make_runner(), max_workers=workers)
    parallel = pool_engine.run_grid(workloads, configs)
    parallel_s = time.perf_counter() - start

    serial_digests = [_outcome_digest(o) for o in serial.outcomes]
    parallel_digests = [_outcome_digest(o) for o in parallel.outcomes]
    identical = serial_digests == parallel_digests
    runs = len(serial.outcomes)
    speedup = serial_s / parallel_s
    # Per-core efficiency normalizes by the cores the workers can
    # actually occupy, so the metric is comparable across runners: 4
    # workers on 1 core should score ~1.0 (no useless overhead), and 4
    # workers on >=4 cores should score speedup/4.
    effective_cores = max(1, min(workers, os.cpu_count() or 1))
    return {
        "runs": runs,
        "workers": workers,
        "effective_cores": effective_cores,
        "engine": parallel.engine,
        "serial_wall_s": round(serial_s, 4),
        "parallel_wall_s": round(parallel_s, 4),
        "serial_runs_per_s": round(runs / serial_s, 3),
        "parallel_runs_per_s": round(runs / parallel_s, 3),
        "speedup": round(speedup, 3),
        "efficiency": round(speedup / effective_cores, 3),
        "identical": identical,
    }


def _bench_multicore(scale: float) -> Dict:
    """Multicore interference scenario: wall clock + attribution checks.

    Runs ``noisy-neighbor`` fresh through the lockstep harness and
    records the victim's neighbor-induced attribution (deterministic —
    the turnstile serializes cycles), plus two identity checks the gate
    enforces: Memory-Bound conservation (``self + neighbor ==
    mem_bound`` exactly on every core) and the solo-equivalence oracle
    (one active core through the full uncore + turnstile stack must be
    bit-identical to the single-core pipeline).
    """
    from ..multicore import CoreSlot, Scenario, get_scenario, run_scenario
    from .tma_tool import run_core

    scenario = get_scenario("noisy-neighbor").with_overrides(scale=scale)
    start = time.perf_counter()
    result = run_scenario(scenario)
    wall = time.perf_counter() - start

    conserved = True
    for core in result.cores:
        attribution = core.attribution
        if (attribution.self_share + attribution.neighbor_share
                != attribution.mem_bound):
            conserved = False
        if abs(sum(core.tma.level1.values()) - 1.0) > 1e-9:
            conserved = False
    victim = result.core_at(0)
    aggressor = result.core_at(1)

    solo_scenario = Scenario(
        name="bench-solo", description="solo-equivalence oracle",
        slots=(CoreSlot("median", "rocket"), CoreSlot("idle", "rocket")),
        scale=scale)
    lockstep = run_scenario(solo_scenario, force_lockstep=True).core_at(0)
    solo = run_core("median", ROCKET, scale=scale, use_cache=False)
    solo_identical = (
        lockstep.result.cycles == solo.cycles
        and lockstep.result.instret == solo.instret
        and astuple(lockstep.result.l1d_stats) == astuple(solo.l1d_stats)
        and astuple(lockstep.result.l2_stats) == astuple(solo.l2_stats)
        and lockstep.attribution.neighbor_share == 0.0)

    total_cycles = sum(c.result.cycles for c in result.cores)
    return {
        "scenario": scenario.name,
        "scale": scale,
        "cores": len(result.cores),
        "wall_s": round(wall, 4),
        "lockstep_cycles": result.cycles,
        "kcycles_per_s": round(total_cycles / wall / 1e3, 1),
        "victim_neighbor_fraction": round(
            victim.attribution.neighbor_fraction, 6),
        "aggressor_bandwidth_share": round(aggressor.bandwidth_share, 6),
        "conserved": conserved,
        "solo_identical": solo_identical,
    }


#: Job mix for the sharded-service section: a small duplicate-heavy
#: burst (75% duplicates) mirroring the shard-smoke gate at
#: bench-cheap scales.
SHARD_BENCH_WORKLOADS = ("vvadd", "median", "qsort", "towers")
SHARD_BENCH_SCALES = (0.15, 0.2)
SHARD_BENCH_REPEATS = 4
SHARD_BENCH_SHARDS = 3


def _bench_shard(workers: int) -> Dict:
    """Routed cluster throughput vs. an equal-worker single node.

    Boots three in-process shard services (thread executors) behind
    the consistent-hash gateway, pushes a duplicate-heavy burst
    through ``Gateway.submit_payload``, and measures routed wall clock
    against the same burst on one single-node service holding the same
    total worker count — each side against its own isolated store.

    ``vs_single`` (``routed_wall / single_wall``) is the acceptance
    target (< 2.0): the routing tier — key hashing, HTTP hops to the
    shards, route bookkeeping — must cost less than 2x the single
    process it replaces on any runner; with real cores behind the
    shards it lands under 1.0, so like ``parallel.speedup`` the ratio
    is recorded with ``target_met`` + ``effective_cores`` rather than
    gated across heterogeneous runners.  ``identical`` compares every
    routed result document to the single-node one (modulo
    cache/attempt provenance); ``dedup_exact`` asserts live executions
    never exceeded the unique analyses.
    """
    from ..service import (
        Gateway,
        TMAService,
        make_shard_service,
        serve_in_thread,
    )
    from ..service.job import TMAJob

    per_shard = max(1, workers // SHARD_BENCH_SHARDS)
    total_workers = SHARD_BENCH_SHARDS * per_shard
    unique = [
        {"workload": name, "config": "rocket", "scale": scale}
        for name in SHARD_BENCH_WORKLOADS
        for scale in SHARD_BENCH_SCALES
    ]
    burst = [
        unique[i % len(unique)]
        for i in range(len(unique) * SHARD_BENCH_REPEATS)
    ]
    capacity = max(64, len(burst))

    def _poll(status: Callable[[str], Optional[Dict]], ids: List[str]) -> Dict:
        results: Dict[str, Dict] = {}
        pending = set(ids)
        deadline = time.time() + 240.0
        while pending and time.time() < deadline:
            for job_id in list(pending):
                record = status(job_id)
                if record is None:
                    raise RuntimeError(f"job {job_id} vanished mid-bench")
                if record.get("degraded"):
                    continue
                state = record["state"]
                if state == "done":
                    results[job_id] = record["result"]
                    pending.discard(job_id)
                elif state not in ("queued", "running"):
                    raise RuntimeError(f"job {job_id} ended {state}")
            if pending:
                time.sleep(0.01)
        if pending:
            raise RuntimeError(f"{len(pending)} jobs never finished")
        return results

    def _canonical(result: Dict) -> Dict:
        return {
            key: value
            for key, value in result.items()
            if key not in ("from_cache", "attempts")
        }

    saved = os.environ.get("REPRO_CACHE_DIR")
    cluster_tmp = tempfile.mkdtemp(prefix="repro-bench-shard-")
    single_tmp = tempfile.mkdtemp(prefix="repro-bench-single-")
    os.environ["REPRO_CACHE_DIR"] = cluster_tmp
    shards: List = []
    servers: List = []
    try:
        clear_caches()
        urls = {}
        for index in range(SHARD_BENCH_SHARDS):
            shard_id = f"s{index + 1}"
            service = make_shard_service(
                shard_id,
                workers=per_shard,
                executor="thread",
                queue_capacity=capacity,
            ).start()
            server, _thread = serve_in_thread(service)
            shards.append(service)
            servers.append(server)
            urls[shard_id] = f"http://127.0.0.1:{server.server_address[1]}"
        gateway = Gateway(
            ",".join(f"{sid}={url}" for sid, url in sorted(urls.items()))
        )

        start = time.perf_counter()
        receipts = [gateway.submit_payload(dict(body)) for body in burst]
        routed = _poll(gateway.status, [r["id"] for r in receipts])
        routed_s = time.perf_counter() - start
        executed = sum(
            service.metrics.counter("jobs_executed") for service in shards
        )

        for service in shards:
            service.drain()
        for server in servers:
            server.shutdown()
            server.server_close()
        shards, servers = [], []

        os.environ["REPRO_CACHE_DIR"] = single_tmp
        clear_caches()
        single = TMAService(
            workers=total_workers, executor="thread", queue_capacity=capacity
        ).start()
        try:
            start = time.perf_counter()
            ids = [single.submit_payload(dict(body)).record.id for body in burst]
            single_results = _poll(single.status, ids)
            single_s = time.perf_counter() - start
        finally:
            single.drain()

        single_by_key = {
            TMAJob.from_payload(dict(body)).job_key(): single_results[job_id]
            for body, job_id in zip(burst, ids)
        }
        identical = all(
            _canonical(routed[receipt["id"]])
            == _canonical(single_by_key[TMAJob.from_payload(dict(body)).job_key()])
            for receipt, body in zip(receipts, burst)
        )

        jobs = len(burst)
        vs_single = routed_s / single_s if single_s else 0.0
        effective_cores = max(1, min(total_workers, os.cpu_count() or 1))
        return {
            "jobs": jobs,
            "unique": len(unique),
            "shards": SHARD_BENCH_SHARDS,
            "workers_per_shard": per_shard,
            "total_workers": total_workers,
            "effective_cores": effective_cores,
            "executed": executed,
            "dedup_exact": bool(executed <= len(unique)),
            "routed_wall_s": round(routed_s, 4),
            "routed_jobs_per_s": round(jobs / routed_s, 3),
            "single_wall_s": round(single_s, 4),
            "single_jobs_per_s": round(jobs / single_s, 3),
            "vs_single": round(vs_single, 3),
            "target_met": bool(vs_single < 2.0),
            "identical": identical,
        }
    finally:
        for service in shards:
            try:
                service.drain()
            except Exception:
                pass
        for server in servers:
            server.shutdown()
            server.server_close()
        if saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved
        clear_caches()
        shutil.rmtree(cluster_tmp, ignore_errors=True)
        shutil.rmtree(single_tmp, ignore_errors=True)


def run_benchmarks(
    quick: bool = False,
    workers: Optional[int] = None,
    inject_slowdown: float = 0.0,
) -> Dict:
    """Run the tier-2 set and return the ``BENCH_*.json`` payload.

    ``workers`` defaults to 4 — the acceptance point for sweep scaling
    — even on smaller machines; efficiency is normalized by the cores
    the workers can actually occupy.
    """
    workers = workers or 4
    if quick:
        workloads: Sequence[str] = QUICK_WORKLOADS
    else:
        workloads = workload_names("micro")
    scale = 1.0
    return {
        "bench": "tier-2",
        "mode": "quick" if quick else "full",
        "scale": scale,
        "fingerprint": _fingerprint(),
        "functional": _bench_functional(workloads, scale),
        "trace_cache": _bench_trace_cache(workloads, scale),
        "timing": _bench_timing(scale, workers, inject_slowdown),
        "parallel": _bench_parallel(workloads, scale, workers),
        # Fixed small scale: the lockstep harness serializes cycles
        # across cores, so the section stays CI-cheap at any mode.
        "multicore": _bench_multicore(0.3),
        # Fixed small basket: the routed-vs-single ratio is about the
        # service tier, not the simulator, so it stays CI-cheap too.
        "service": {"shard": _bench_shard(workers)},
    }


# ----------------------------------------------------------------------
# Regression gate


def _lookup(payload: Dict, path: str) -> Optional[float]:
    node = payload
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) else None


def compare_benchmarks(
    current: Dict,
    baseline: Dict,
    threshold: float = 0.20,
    timing: bool = True,
) -> List[str]:
    """Gate *current* against *baseline*; returns regression messages.

    A gated ratio metric regresses when it falls more than *threshold*
    below the baseline value.  Improvements and missing baseline
    metrics never fail; a non-identical parallel merge always fails.
    The ``parallel.*`` ratios are only compared when both snapshots ran
    on the same effective core count — per-core efficiency measured on
    1 core and on 4 cores are different quantities, and comparing them
    across heterogeneous runners would manufacture regressions.  Pass
    ``timing=False`` to skip the ratio comparisons entirely (a profiled
    run distorts wall-clock ratios); the identity checks still apply.
    """
    current_cores = _lookup(current, "parallel.effective_cores")
    baseline_cores = _lookup(baseline, "parallel.effective_cores")
    cores_match = current_cores == baseline_cores
    problems: List[str] = []
    per_core_paths = ("parallel.", "timing.windowed.")
    for path in GATED_METRICS if timing else ():
        if path.startswith(per_core_paths) and not cores_match:
            continue
        base = _lookup(baseline, path)
        cur = _lookup(current, path)
        if base is None or cur is None or base <= 0:
            continue
        floor = base * (1.0 - threshold)
        if cur < floor:
            problems.append(
                f"{path}: {cur:.3f} < {floor:.3f} "
                f"(baseline {base:.3f}, threshold {threshold:.0%})"
            )
    if not current.get("parallel", {}).get("identical", True):
        problems.append(
            "parallel.identical: parallel and serial sweeps "
            "merged to different results"
        )
    if not current.get("functional", {}).get("identical", True):
        problems.append(
            "functional.identical: compiled and interpreted executors "
            "produced different traces"
        )
    if not current.get("timing", {}).get("identical", True):
        problems.append(
            "timing.identical: batched grid points diverged from "
            "their single-run CoreResults"
        )
    windowed = current.get("timing", {}).get("windowed", {})
    if not windowed.get("stitch_ok", True):
        problems.append(
            "timing.windowed.stitch_ok: stitched window totals diverged "
            f"from the run_core oracle ({windowed.get('stitch_error', '')})"
        )
    if not windowed.get("sampled", {}).get("sampled_ok", True):
        problems.append(
            "timing.windowed.sampled_ok: sampled-mode extrapolation "
            f"error {windowed.get('sampled', {}).get('error')} exceeded "
            f"the {windowed.get('sampled', {}).get('bound')} bound "
            "(or results lost the sampled label / error bars)"
        )
    multicore = current.get("multicore", {})
    if not multicore.get("solo_identical", True):
        problems.append(
            "multicore.solo_identical: one core through the shared "
            "uncore + turnstile diverged from the single-core pipeline"
        )
    if not multicore.get("conserved", True):
        problems.append(
            "multicore.conserved: self + neighbor attribution no "
            "longer sums exactly to the Memory-Bound slots"
        )
    shard = current.get("service", {}).get("shard", {})
    if not shard.get("identical", True):
        problems.append(
            "service.shard.identical: routed cluster results diverged "
            "from the single-node service"
        )
    if not shard.get("dedup_exact", True):
        problems.append(
            "service.shard.dedup_exact: cluster executions exceeded "
            "the unique analyses (exact dedup lost)"
        )
    # Attribution stability: the split is deterministic, so against a
    # same-model baseline it should be unchanged; large drift means a
    # model change that must be acknowledged with a new baseline.
    base_fraction = _lookup(baseline, "multicore.victim_neighbor_fraction")
    cur_fraction = _lookup(current, "multicore.victim_neighbor_fraction")
    if base_fraction is not None and cur_fraction is not None:
        drift = abs(cur_fraction - base_fraction)
        if drift > max(0.02, 0.5 * base_fraction):
            problems.append(
                f"multicore.victim_neighbor_fraction: {cur_fraction:.4f} "
                f"drifted from baseline {base_fraction:.4f}"
            )
    return problems


def find_baseline(output: str, root: str = ".") -> Optional[str]:
    """Newest committed ``BENCH_*.json`` other than *output* itself."""
    output_abs = os.path.abspath(output)
    candidates = [
        path
        for path in glob.glob(os.path.join(root, "BENCH_*.json"))
        if os.path.abspath(path) != output_abs
    ]

    def pr_number(path: str) -> int:
        match = re.search(r"(\d+)", os.path.basename(path))
        return int(match.group(1)) if match else -1

    candidates.sort(key=pr_number)
    return candidates[-1] if candidates else None


def render_payload(payload: Dict) -> str:
    par = payload["parallel"]
    lines = [
        f"tier-2 bench [{payload['mode']}] scale={payload['scale']} "
        f"python={payload['fingerprint']['python']} "
        f"cpus={payload['fingerprint']['cpus']}",
    ]
    fn = payload.get("functional")
    if fn:
        lines.append(
            f"  functional: {fn['workloads']} workloads "
            f"({fn['instructions']} insts)  "
            f"interp {fn['interpreted_wall_s']:.2f}s "
            f"({fn['interpreted_kinst_per_s']:.0f} kinst/s)  "
            f"compiled {fn['compiled_wall_s']:.2f}s "
            f"({fn['compiled_kinst_per_s']:.0f} kinst/s)  "
            f"speedup {fn['speedup']:.2f}x  "
            f"identical={fn['identical']}"
        )
    tc = payload.get("trace_cache")
    if tc:
        lines.append(
            f"  trace_cache: cold {tc['cold_wall_s']:.2f}s  "
            f"disk {tc['disk_wall_s']:.2f}s  "
            f"mem {tc['mem_wall_s']:.2f}s  "
            f"warm hit rate {tc['trace_cache_hit_rate']:.2f}"
        )
    timing = payload.get("timing")
    if timing:
        batch = timing.get("batch")
        if batch:
            lines.append(
                f"  timing[batch]: grid-of-{batch['points']} x "
                f"{batch['workloads']} workloads  "
                f"singles {batch['singles_wall_s']:.2f}s  "
                f"batch {batch['batch_wall_s']:.2f}s "
                f"(speedup {batch['speedup']:.2f}x)  "
                f"pool[{batch['workers']}] {batch['pool_wall_s']:.2f}s "
                f"(vs_single {batch['vs_single']:.2f}x, "
                f"target_met={batch['target_met']})  "
                f"identical={batch['identical']}"
            )
        windowed = timing.get("windowed")
        if windowed:
            sampled = windowed["sampled"]
            lines.append(
                f"  timing[windowed]: {windowed['huge_workload']} "
                f"({windowed['huge_instructions']} insts) x "
                f"{windowed['windows']} windows  "
                f"serial {windowed['serial_wall_s']:.2f}s  "
                f"windowed[{windowed['workers']}] "
                f"{windowed['windowed_wall_s']:.2f}s "
                f"(speedup {windowed['speedup']:.2f}x, "
                f"efficiency {windowed['efficiency']:.2f}, "
                f"target_met={windowed['target_met']})  "
                f"sampled {windowed['sampled_wall_s']:.2f}s "
                f"({windowed['sampled_speedup']:.2f}x at "
                f"{windowed['sampled_coverage']:.0%} coverage)  "
                f"stitch_ok={windowed['stitch_ok']}  "
                f"sampled_err={sampled['error']:.4f} "
                f"(ok={sampled['sampled_ok']})"
            )
    lines += [
        f"  parallel: {par['runs']} sweep pairs  "
        f"serial {par['serial_wall_s']:.2f}s  "
        f"{par['workers']} workers {par['parallel_wall_s']:.2f}s  "
        f"speedup {par['speedup']:.2f}x  "
        f"efficiency {par['efficiency']:.2f}  "
        f"identical={par['identical']} engine={par['engine']}",
    ]
    multicore = payload.get("multicore")
    if multicore:
        lines.append(
            f"  multicore: {multicore['scenario']} x{multicore['cores']} "
            f"scale={multicore['scale']}  "
            f"{multicore['lockstep_cycles']} lockstep cycles in "
            f"{multicore['wall_s']:.2f}s "
            f"({multicore['kcycles_per_s']:.0f} kcyc/s)  "
            f"victim nbr {multicore['victim_neighbor_fraction']:.4f}  "
            f"conserved={multicore['conserved']} "
            f"solo_identical={multicore['solo_identical']}"
        )
    shard = payload.get("service", {}).get("shard")
    if shard:
        lines.append(
            f"  service[shard]: {shard['jobs']} jobs "
            f"({shard['unique']} unique) x {shard['shards']} shards  "
            f"routed {shard['routed_wall_s']:.2f}s "
            f"({shard['routed_jobs_per_s']:.1f}/s)  "
            f"single[{shard['total_workers']}] "
            f"{shard['single_wall_s']:.2f}s "
            f"({shard['single_jobs_per_s']:.1f}/s)  "
            f"vs_single {shard['vs_single']:.2f}x "
            f"(target_met={shard['target_met']})  "
            f"dedup_exact={shard['dedup_exact']} "
            f"identical={shard['identical']}"
        )
    return "\n".join(lines)


def write_payload(payload: Dict, output: str) -> None:
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
