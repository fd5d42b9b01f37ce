"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-grid --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` runs untraced and reports the end-to-end metrics.
``--trace 1`` runs half the rounds untraced and as many again with the
span tracer installed, and reports the per-layer metrics, including the
tracing overhead (traced / untraced op time).  Human-readable lines
come first; the last line of standard output is the JSON result.
See ``README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from digests import load_golden  # noqa: E402
from spans import TARGETS, Tracer, self_times  # noqa: E402
from workloads import (WORKERS, WORKLOADS, Context,  # noqa: E402
                       OpRecord, host_probe, prepare_process)

#: ``host_probe()`` on the two-core host the benchmark was sized on.
#: End-to-end timings are scaled to a host whose probe reads this.
REFERENCE_PROBE_MS = 2.5

#: Ops on each side whose probe readings calibrate an op.
PROBE_WINDOW = 5

#: Set-ups measured in fresh interpreters before the run's own set-up;
#: setup_s is the median of these and the run's own.
SETUP_CHILDREN = 4

#: Probe readings taken just before each set-up, which scale it.
SETUP_PROBES = 3

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("op_s.p50", "s"), ("op_s.tail", "s"),
              ("sim_kinst_per_s", "kinst/s"), ("peak_rss_mb", "MB"))

LAYERS = tuple(sorted({layer for layer, _, _ in TARGETS}
                      | {"service.wait"}))

PER_LAYER = (
    ("host.probe_ms", "ms"), ("trace.overhead", "ratio"),
    ("isa.exec_s", "s"), ("isa.exec_kinst_per_s", "kinst/s"),
    ("trace_cache.hit_rate", "ratio"), ("cores.compile_s", "s"),
    ("cores.rocket.kinst_per_s", "kinst/s"),
    ("cores.boom.kinst_per_s", "kinst/s"),
    ("cores.batch.share_rate", "ratio"),
    ("pmu.measure_s", "s"), ("pmu.kinst_per_s", "kinst/s"),
    ("pmu.observer_ratio", "ratio"),
    ("multicore.kcycles_per_s", "kcycles/s"),
    ("multicore.lockstep_ratio", "ratio"),
    ("cores.windowed.window_s.p50", "s"),
    ("cores.windowed.window_s.max", "s"),
    ("cores.windowed.fanout_eff", "ratio"),
    ("cores.windowed.parent_s", "s"),
    ("core.tma_s", "s"), ("cache.store_s", "s"), ("cache.load_s", "s"),
    ("service.submit_s.p50", "s"), ("service.hop_s.p50", "s"),
    ("service.queue_wait_s.p50", "s"), ("service.exec_s.p50", "s"),
    ("service.executed", "count"), ("service.dedup_hits", "count"),
    ("service.cache_hits", "count"), ("service.rejected", "count"),
    ("service.excess_executions", "count"),
    ("hit_s.p50", "s"), ("miss_s.p50", "s"), ("miss_s.tail", "s"),
    ("sampled_tma_err", "frac"),
) + tuple((f"self_s.{layer}", "s") for layer in LAYERS)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile_tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with fewer than eleven
    samples it is the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return (ordered[-1] if ordered else 0.0), 100.0, n
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, n


def _terminate(signum, frame):  # noqa: ARG001 - signal API
    raise SystemExit(128 + signum)


# ----------------------------------------------------------------------
# set-up


def setup_in_child(args) -> Tuple[float, float]:
    """One cold set-up in a fresh interpreter: (seconds, probe ms)."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=150, cwd=str(ROOT))
    if completed.returncode != 0:
        raise RuntimeError(f"set-up child failed: {completed.stderr[-2000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    return float(result["setup_s"]), float(result["probe_ms"])


# ----------------------------------------------------------------------
# metrics


def typical_op(records: List[OpRecord], fixed_ops: bool) -> float:
    """Median op latency.

    When every round runs the same ops, each op is first reduced to its
    median over the rounds.  A plain median over all samples would sit
    on the boundary between two op kinds and pick the slowest copy of
    one and the fastest of the other, which amplifies host noise.
    """
    if not fixed_ops:
        return median([record.seconds for record in records])
    by_op: Dict[str, List[float]] = {}
    for record in records:
        by_op.setdefault(record.key, []).append(record.seconds)
    return median([median(values) for values in by_op.values()])


def end_to_end(rounds: List[Tuple[float, List[OpRecord]]],
               setup_samples: List[float], fixed_ops: bool
               ) -> Dict[str, float]:
    walls = [wall for wall, _ in rounds]
    records = [record for _, recs in rounds for record in recs]
    tail, _, _ = percentile_tail([record.seconds for record in records])
    self_usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": median(setup_samples),
        "wall_s": median(walls),
        "ops_per_s": len(records) / sum(walls),
        "op_s.p50": typical_op(records, fixed_ops),
        "op_s.tail": tail,
        "sim_kinst_per_s": (sum(r.sim_instr for r in records)
                            / sum(walls) / 1000.0),
        "peak_rss_mb": (self_usage + child_usage) / 1024.0,
    }


def calibrate(rounds: List[Tuple[float, List[OpRecord]]],
              probes: List[float]) -> List[Tuple[float, List[OpRecord]]]:
    """Scale every op to the reference host speed.

    The host's speed drifts by 15-30% within minutes (see README.md).
    The probe, read before every op and outside every timing, drifts
    with it, so ``seconds * REFERENCE_PROBE_MS / probe`` is the time the
    op would have taken on the reference host.  Each op uses the median
    of the probe readings within ``PROBE_WINDOW`` ops of it, which
    follows the drift while smoothing single readings.
    """
    def factor(index: int) -> float:
        nearby = probes[max(0, index - PROBE_WINDOW):index + PROBE_WINDOW + 1]
        return REFERENCE_PROBE_MS / median(nearby)

    scaled = []
    for wall, records in rounds:
        new = [replace(record, seconds=record.seconds * factor(record.probe))
               for record in records]
        before = sum(record.seconds for record in records)
        after = sum(record.seconds for record in new)
        scaled.append((wall * after / before if before else wall, new))
    return scaled


def submissions(rounds) -> List[Dict[str, Any]]:
    return [sub for _, recs in rounds for record in recs
            for sub in record.extra.get("subs", ())]


def service_split(rounds) -> Dict[str, float]:
    subs = submissions(rounds)
    hits = [s["latency"] for s in subs if s.get("hit")]
    misses = [s["latency"] for s in subs if not s.get("hit")]
    return {"hit_s.p50": median(hits), "miss_s.p50": median(misses),
            "miss_s.tail": percentile_tail(misses)[0] if misses else 0.0}


def excess_executions(counters: Dict[str, int]) -> int:
    """Shard executions beyond one per unique job key.

    Exact dedup keeps this at 0.  It is reported, not counted as a
    failed op: a re-executed job still returns a result that matches
    its digest, and ``correct`` is about outputs.  The shard looks a
    job up in the result store before it takes the scheduler lock, so
    a repeat whose lookup misses just before its primary finishes is
    launched again.  Few runs catch that window.
    """
    return max(0, counters.get("jobs_executed", 0)
               - counters.get("unique_keys", 0))


def sampled_error(ctx: Context, rounds) -> float:
    worst = 0.0
    for _, recs in rounds:
        for record in recs:
            extra = record.extra
            if not extra.get("sampled"):
                continue
            reference = ctx.expect("huge-reference", extra["ref"]) or {}
            for name, value in extra["tma"].items():
                if name in reference:
                    worst = max(worst, abs(value - reference[name]))
    return worst


def per_layer(ctx: Context, workload, spans: List[Dict[str, Any]],
              traced: "TracedPhase", untraced, probe_ms: float,
              counters: Dict[str, int]) -> Dict[str, float]:
    from repro.workloads import trace_cache

    phase = [s for s in spans if traced.covers(s["start"])]

    def chosen(layer, pool, match):
        return [s for s in pool if s["name"] == layer
                and all(s["attrs"].get(k) == v for k, v in match.items())]

    def durations(layer, pool=phase, **match):
        return [s["end"] - s["start"] for s in chosen(layer, pool, match)]

    def rate(layer, attr, pool=phase, **match):
        picked = chosen(layer, pool, match)
        busy = sum(s["end"] - s["start"] for s in picked)
        return (sum(s["attrs"].get(attr, 0) for s in picked) / busy / 1000.0
                if busy else 0.0)

    # Both sides are scaled to the reference host speed, so host drift
    # between the two kinds of round does not read as tracing cost.
    op_time = [sum(r.seconds for r in recs)
               for _, recs in calibrate(traced.rounds, ctx.probes)]
    base_time = [sum(r.seconds for r in recs)
                 for _, recs in calibrate(untraced, ctx.probes)]
    metrics: Dict[str, float] = {
        "host.probe_ms": probe_ms,
        "trace.overhead": median(op_time) / median(base_time),
        # Functional execution is set-up work on most workloads, so it
        # is read from every span, set-up included.
        "isa.exec_s": median(durations("isa.exec", spans)),
        "isa.exec_kinst_per_s": rate("isa.exec", "instret", spans),
        "trace_cache.hit_rate": trace_cache.hit_rate(traced.trace_cache),
        "cores.compile_s": median(durations("cores.compile")),
        "cores.rocket.kinst_per_s": rate("cores.rocket", "instret",
                                         observed=False),
        "cores.boom.kinst_per_s": rate("cores.boom", "instret",
                                       observed=False),
        "pmu.measure_s": median(durations("pmu.measure")),
        "pmu.kinst_per_s": rate("pmu.measure", "instret"),
        "multicore.kcycles_per_s": rate("multicore.scenario", "cycles"),
        "core.tma_s": median(durations("core.tma")),
        "cache.store_s": median(durations("cache.store")),
        "cache.load_s": median(durations("cache.load")),
    }
    shares = [s["attrs"]["share_rate"] for s in chosen("cores.batch", phase,
                                                        {})]
    metrics["cores.batch.share_rate"] = (sum(shares) / len(shares)
                                         if shares else 0.0)
    metrics.update({"pmu.observer_ratio": 0.0,
                    "multicore.lockstep_ratio": 0.0})
    metrics.update(workload.layer_metrics())

    records = [r for _, recs in traced.rounds for r in recs]
    walls = [w for r in records for w in r.extra.get("walls", ())]
    windowed = [r for r in records if "walls" in r.extra]
    metrics["cores.windowed.window_s.p50"] = median(walls)
    metrics["cores.windowed.window_s.max"] = max(walls, default=0.0)
    metrics["cores.windowed.fanout_eff"] = (
        sum(walls) / (WORKERS * sum(r.seconds for r in windowed))
        if windowed else 0.0)
    metrics["cores.windowed.parent_s"] = median(
        [r.seconds - max(r.extra["walls"]) for r in windowed])

    subs = submissions(traced.rounds)
    stats = [s.get("status") or {} for s in subs]
    hop, queue, execute = [], [], []
    for sub, status in zip(subs, stats):
        if status.get("latency_seconds") is not None:
            hop.append(sub["latency"] - status["latency_seconds"])
        if not sub.get("hit") and status.get("started_at"):
            queue.append(status["started_at"] - status["submitted_at"])
            execute.append(status["finished_at"] - status["started_at"])
    metrics["service.submit_s.p50"] = median([s["submit_s"] for s in subs])
    metrics["service.hop_s.p50"] = median(hop)
    metrics["service.queue_wait_s.p50"] = median(queue)
    metrics["service.exec_s.p50"] = median(execute)
    metrics["service.executed"] = counters.get("jobs_executed", 0)
    metrics["service.dedup_hits"] = counters.get("dedup_hits", 0)
    metrics["service.cache_hits"] = counters.get("cache_hits", 0)
    metrics["service.rejected"] = counters.get("jobs_rejected", 0)
    metrics["service.excess_executions"] = excess_executions(counters)
    metrics.update(service_split(untraced))
    metrics["sampled_tma_err"] = sampled_error(ctx, untraced)

    own = self_times(phase)
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = own.get(layer, 0.0) / len(traced.rounds)
    return metrics


class TracedPhase:
    """The traced rounds: their results, time windows and cache counts."""

    def __init__(self) -> None:
        self.rounds: List[Tuple[float, List[OpRecord]]] = []
        self.windows: List[Tuple[float, float]] = []
        self.trace_cache: Dict[str, int] = {}

    def covers(self, instant: float) -> bool:
        # perf_counter is CLOCK_MONOTONIC on Linux, so shard spans from
        # other processes share this process's time base.
        return any(start <= instant <= end for start, end in self.windows)


def run_rounds(workload, ctx, rng, first: int, count: int
               ) -> List[Tuple[float, List[OpRecord]]]:
    return [workload.run_round(ctx, rng, index)
            for index in range(first, first + count)]


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _terminate)

    workload = WORKLOADS[args.workload]()
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(work, load_golden())
    # Every process starts from its own empty result store and trace
    # disk tier: nothing a previous run or set-up left behind is read.
    ctx.fresh_cache_dir("setup")
    try:
        if args.setup_only:
            probe_ms = median([host_probe() for _ in range(SETUP_PROBES)])
            begin = time.perf_counter()
            prepare_process()
            workload.setup(ctx)
            elapsed = time.perf_counter() - begin
            workload.teardown(ctx)
            print(json.dumps({"setup_s": elapsed, "probe_ms": probe_ms}))
            return 0
        return measure(args, workload, ctx)
    finally:
        workload.teardown(ctx)
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload, ctx: Context) -> int:
    ctx.probes += [host_probe() for _ in range(5)]
    probe_start = median(ctx.probes)
    setups = [setup_in_child(args) for _ in range(SETUP_CHILDREN)]

    tracer = Tracer() if args.trace else None
    setup_probe = median([host_probe() for _ in range(SETUP_PROBES)])
    begin = time.perf_counter()
    prepare_process()
    if tracer is not None:
        tracer.install()
        ctx.tracer = tracer
        tracer.op = "setup"
    workload.setup(ctx)
    setups.append((time.perf_counter() - begin, setup_probe))
    if tracer is not None:
        tracer.uninstall()
        ctx.tracer = None
        tracer.op = None

    from repro.workloads import trace_cache

    rng = random.Random(args.seed)
    total = workload.rounds_for(args.seconds)
    traced = TracedPhase()
    if tracer is None:
        untraced = run_rounds(workload, ctx, rng, 0, total)
    else:
        # Untraced and traced rounds alternate, and so does which of a
        # pair goes first, so warm-up and drift in host speed fall on
        # both sides of the overhead ratio.
        untraced = []
        for pair in range(max(1, total // 2)):
            for traced_turn in ((False, True) if pair % 2 == 0
                                else (True, False)):
                index = 2 * pair + traced_turn
                if not traced_turn:
                    untraced += run_rounds(workload, ctx, rng, index, 1)
                    continue
                tracer.install()
                ctx.tracer = tracer
                before = trace_cache.stats()
                start = time.perf_counter()
                traced.rounds += run_rounds(workload, ctx, rng, index, 1)
                traced.windows.append((start, time.perf_counter()))
                for key, value in trace_cache.stats_delta(before).items():
                    traced.trace_cache[key] = (
                        traced.trace_cache.get(key, 0) + value)
                tracer.uninstall()
                ctx.tracer = None
    tail_probes = [host_probe() for _ in range(5)]
    probe_end = median(tail_probes)
    ctx.probes += tail_probes

    all_rounds = untraced + traced.rounds
    records = [r for _, recs in all_rounds for r in recs]
    counters = workload.finish(ctx, records)
    workload.teardown(ctx)

    failed = sum(1 for r in records if not r.ok)
    attempted = len(records)
    excess = excess_executions(counters)

    host = end_to_end(untraced, [seconds for seconds, _ in setups],
                      workload.fixed_ops)
    probe_ms = median(ctx.probes)
    # Each set-up is scaled by the probe read just before it.
    report = end_to_end(calibrate(untraced, ctx.probes),
                        [seconds * REFERENCE_PROBE_MS / probe
                         for seconds, probe in setups], workload.fixed_ops)
    print(f"# workload {args.workload} seed {args.seed}: "
          f"{len(untraced)} untraced round(s), {len(traced.rounds)} traced; "
          f"modelled caches start empty in every simulation")
    for name, unit in END_TO_END:
        print(f"{name:28s} {report[name]:14.6f} {unit:8s} "
              f"(host {host[name]:.6f})")
    print(f"{'round walls (host)':28s} "
          + " ".join(f"{wall:.3f}" for wall, _ in all_rounds) + " s")
    seconds = [r.seconds for _, recs in untraced for r in recs]
    _, pct, n = percentile_tail(seconds)
    print(f"{'op_s.tail is':28s} p{pct:.1f} of {n} ops")
    print(f"{'fail_frac':28s} {failed / max(1, attempted):14.6f} "
          f"({failed}/{attempted})")
    print(f"{'host.probe_ms':28s} {probe_ms:14.3f} ms "
          f"(start {probe_start:.3f}, end {probe_end:.3f}, "
          f"reference {REFERENCE_PROBE_MS})")
    if args.workload == "service-gateway":
        for name, value in service_split(untraced).items():
            print(f"{name:28s} {value:14.6f} s")
        print(f"{'service counters':28s} {counters}")
        print(f"{'service.excess_executions':28s} {excess:14d} "
              f"(executions beyond one per unique job key)")
    if args.workload == "huge-windowed":
        print(f"{'sampled_tma_err':28s} {sampled_error(ctx, untraced):14.6f}"
              f" frac (worst |sampled - serial| TMA level-1 slot share)")
    for record in [r for r in records if not r.ok][:5]:
        print(f"# FAILED {record.key}: {record.error}")

    if tracer is not None:
        spans = list(tracer.spans)
        for path in ctx.shard_span_files:
            if path.exists():
                with open(path) as handle:
                    spans.extend(json.load(handle))
        out_dir = ROOT / ".perfbench" / "spans"
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / f"{args.workload}-seed{args.seed}.json",
                  "w") as handle:
            json.dump(spans, handle)
        layers = per_layer(ctx, workload, spans, traced, untraced, probe_ms,
                           counters)
        units = dict(PER_LAYER)
        for name, _ in PER_LAYER:
            print(f"{name:36s} {layers[name]:14.6f} {units[name]}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": report[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
