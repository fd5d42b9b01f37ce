"""Command-line interface: the reproduction's ``tma_tool``.

Mirrors the artifact's ``tma_tool`` commands::

    python -m repro.tools.cli list
    python -m repro.tools.cli tma --workload qsort --config large-boom
    python -m repro.tools.cli suite --category micro --config rocket
    python -m repro.tools.cli trace --workload mergesort --config rocket \
        --signals icache_miss,fetch_bubbles --window 120
    python -m repro.tools.cli vlsi
    python -m repro.tools.cli perf --workload coremark --events \
        uops_issued,uops_retired --counter-arch distributed
    python -m repro.tools.cli reliability --faults 5 --seed 0

(Installed as the ``repro-tma`` console script.)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..core import (compute_tma, render_breakdown_table, render_result,
                    to_csv, to_json)
from ..cores import CONFIGS_BY_NAME, config_by_name
from ..cores.base import RocketConfig
from ..pmu import PerfHarness
from ..pmu.harness import make_core
from ..trace import (boom_tma_bundle, capture_trace, find_first,
                     render_raster, rocket_tma_bundle)
from ..vlsi import ARCHITECTURES, sweep
from ..workloads import build_trace, get_workload, workload_names
from .tma_tool import run_suite


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default="large-boom",
                        choices=sorted(CONFIGS_BY_NAME),
                        help="core configuration (Table IV)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")


def _add_windowing(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--windows", type=int, default=None,
                        help="shard the trace into K windows simulated in "
                             "parallel and stitched (default: REPRO_WINDOWS "
                             "env, else unwindowed); required for 'huge' "
                             "tier workloads")
    parser.add_argument("--warmup", type=int, default=None,
                        help="per-window warmup overlap in instructions "
                             "(default: REPRO_WINDOW_WARMUP env, else the "
                             "engine default; see docs/windowed.md)")
    parser.add_argument("--sampled", action="store_true",
                        help="sample one span per window period and "
                             "extrapolate (results are always labeled "
                             "sampled, with per-slot error bars)")
    parser.add_argument("--progress", action="store_true",
                        help="per-window progress ticks on stderr")


def _sampled_banner(result) -> Optional[str]:
    """The sampled-mode label + error bars for one windowed CoreResult."""
    if not getattr(result, "sampled", False):
        return None
    meta = result.windowed or {}
    lines = [f"SAMPLED run (coverage {meta.get('coverage', 0):.1%}): "
             "totals are extrapolated, never exact"]
    bars = meta.get("error_bars") or {}
    for slot in sorted(bars):
        bar = bars[slot]
        lines.append(
            f"  {slot:<16s} {bar['mean']:.4f} "
            f"[{bar['low']:.4f}, {bar['high']:.4f}] "
            f"(stderr {bar['stderr']:.4f})")
    return "\n".join(lines)


def _cmd_list(args: argparse.Namespace) -> int:
    for name in workload_names(args.category):
        workload = get_workload(name)
        print(f"{name:<20s} [{workload.category}] "
              f"{workload.description}")
    return 0


def _cmd_tma(args: argparse.Namespace) -> int:
    from .tma_tool import run_core

    config = config_by_name(args.config)
    try:
        core_result = run_core(args.workload, config, scale=args.scale,
                               use_cache=not args.no_cache,
                               windows=args.windows, warmup=args.warmup,
                               sampled=args.sampled, progress=args.progress)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    banner = _sampled_banner(core_result)
    if banner:
        print(banner)
        print()
    print(render_result(compute_tma(core_result),
                        show_level2=not args.top_only))
    meta = core_result.windowed
    if meta is not None:
        print(f"\nwindowed: windows={meta['windows']} "
              f"warmup={meta['warmup']} sampled={meta['sampled']} "
              f"coverage={meta['coverage']:.1%} "
              f"wall={meta.get('wall_s', 0):.3f}s")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    import time

    from .checkpoint import SweepCheckpoint, grid_signature
    from .tma_tool import SuiteDeadlineExceeded

    config = config_by_name(args.config)
    names = workload_names(args.category)
    if args.category == "huge" and args.windows is None:
        print("the 'huge' tier is only runnable windowed: pass --windows "
              "(optionally --sampled); see docs/windowed.md",
              file=sys.stderr)
        return 2
    # Crash-safe progress: every finished workload is checkpointed, so
    # a killed run (or a lapsed --deadline) resumes with --resume
    # instead of starting over.  The signature ties the checkpoint to
    # this exact grid + code fingerprint; any mismatch discards it.
    # Window parameters fold into both tag and signature, so a windowed
    # suite never resumes from (or poisons) a plain suite's checkpoint.
    window_tag = (f"-w{args.windows}-u{args.warmup}-s{int(args.sampled)}"
                  if args.windows is not None else "")
    checkpoint = SweepCheckpoint(
        tag=(f"suite-{args.category or 'all'}-{args.config}-{args.scale:g}"
             f"{window_tag}"),
        signature=grid_signature(names, [config.name], args.scale,
                                 extra=window_tag))
    if not args.resume:
        checkpoint.clear()
    deadline = (time.time() + args.deadline
                if args.deadline is not None else None)
    if args.sampled:
        print("SAMPLED suite: totals are extrapolated, never exact",
              file=sys.stderr)
    try:
        results = run_suite(names, config, scale=args.scale,
                            use_cache=not args.no_cache,
                            checkpoint=checkpoint, deadline=deadline,
                            windows=args.windows, warmup=args.warmup,
                            sampled=args.sampled, progress=args.progress)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SuiteDeadlineExceeded as exc:
        if exc.results:
            print(render_breakdown_table(
                exc.results,
                title=f"{args.category or 'all'} suite on {config.name} "
                      f"(partial: deadline lapsed)"))
        print(f"deadline lapsed: {len(exc.remaining)} workload(s) "
              f"remaining ({', '.join(exc.remaining)}); "
              "re-run with --resume to finish", file=sys.stderr)
        return 3
    checkpoint.clear()
    suite_title = f"{args.category or 'all'} suite on {config.name}"
    if args.sampled:
        suite_title += " (SAMPLED: extrapolated)"
    print(render_breakdown_table(results, title=suite_title))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(to_json(results))
        print(f"wrote {args.json}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(to_csv(results))
        print(f"wrote {args.csv}")
    return 0


def _render_grid_matrix(batch) -> str:
    """One workload's design-space matrix: a row per grid point."""
    from ..core.report import format_percent
    from ..core.tma import TOP_LEVEL

    header = [f"{'grid point':<28s}"]
    header += [f"{cls.split('_')[0]:>11s}" for cls in TOP_LEVEL]
    header.append(f"{'IPC':>8s}{'cycles':>12s}")
    title = f"{batch.workload} (scale {batch.scale:g})"
    if any(getattr(result, "sampled", False) for result in batch.results):
        title += "  [SAMPLED: extrapolated]"
    lines = [title, "".join(header)]
    for point, result, tma in zip(batch.points, batch.results, batch.tma):
        row = [f"{point.key:<28.28s}"]
        row += [f"{format_percent(tma.fraction(cls)):>11s}"
                for cls in TOP_LEVEL]
        row.append(f"{tma.ipc:8.3f}{result.cycles:>12d}")
        lines.append("".join(row))
    stats = batch.stats
    shared = (f"mode={stats.mode} workers={stats.workers} "
              f"executed={stats.executed} cache_hits={stats.cache_hits} "
              f"restored={stats.restored} trace_fetches={stats.trace_fetches} "
              f"tables_shared={stats.tables_shared} "
              f"folds_shared={stats.fold_caches_shared} "
              f"wall={stats.wall_s:.3f}s")
    if stats.fallback_reason:
        shared += f" fallback=[{stats.fallback_reason}]"
    lines.append(shared)
    return "\n".join(lines)


def _grid_json_payload(points, batches, scale: float) -> dict:
    from dataclasses import asdict

    from ..core.tma import TOP_LEVEL

    workloads = {}
    degraded = []
    def point_payload(point, result, tma) -> dict:
        payload = {
            "config": point.config.name,
            "cycles": result.cycles,
            "instret": result.instret,
            "ipc": tma.ipc,
            "tma": {cls: tma.fraction(cls) for cls in TOP_LEVEL},
        }
        if getattr(result, "windowed", None) is not None:
            # Windowed runs surface the plan, per-window wall times,
            # and (when sampled) the error bars — and always the
            # sampled flag, so automation can never mistake an
            # extrapolation for an exact run.
            payload["sampled"] = result.sampled
            payload["windowed"] = result.windowed
        return payload

    for batch in batches:
        workloads[batch.workload] = {
            "stats": asdict(batch.stats),
            "points": {
                point.key: point_payload(point, result, tma)
                for point, result, tma in zip(batch.points, batch.results,
                                              batch.tma)
            },
        }
        if batch.stats.fallback_reason:
            degraded.append({"workload": batch.workload,
                             "mode": batch.stats.mode,
                             "fallback_reason": batch.stats.fallback_reason})
    # Automation watching a sweep needs the pool-fallback story at the
    # top level, not buried per-workload: `degraded` lists every batch
    # that fell back to inline execution and why.
    return {"scale": scale, "grid": [p.key for p in points],
            "workloads": workloads, "degraded": degraded}


def _cmd_sweep(args: argparse.Namespace) -> int:
    import time

    from ..cores.batch import DEFAULT_GRID, canonical_grid_key, parse_grid
    from .checkpoint import SweepCheckpoint, grid_signature
    from .tma_tool import SuiteDeadlineExceeded, run_grid

    try:
        points = parse_grid(args.grid or DEFAULT_GRID, vary=args.vary or ())
    except (KeyError, ValueError) as exc:
        print(f"bad grid spec: {exc}", file=sys.stderr)
        return 2
    if args.workloads:
        names = [w.strip() for w in args.workloads.split(",") if w.strip()]
        known = set(workload_names()) | set(workload_names("huge"))
        unknown = [name for name in names if name not in known]
        if unknown:
            print(f"unknown workload(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
    else:
        names = workload_names(args.category)
    huge = set(workload_names("huge"))
    if any(name in huge for name in names) and args.windows is None:
        print("'huge' tier workloads are only runnable windowed: pass "
              "--windows (optionally --sampled); see docs/windowed.md",
              file=sys.stderr)
        return 2
    # One checkpoint spans the whole (workloads x points) sweep; the
    # signature folds the canonical grid key, so a checkpoint from a
    # different grid (or an edited simulator) is discarded, and the
    # deterministic tag lets --resume find it again.  Window parameters
    # fold in too: a windowed sweep and a plain sweep of the same grid
    # are different experiments and must never share progress.
    window_tag = (f"w{args.windows}-u{args.warmup}-s{int(args.sampled)}"
                  if args.windows is not None else "")
    signature = grid_signature(
        names, [point.key for point in points], args.scale,
        extra=canonical_grid_key("+".join(sorted(names)), points, args.scale)
        + window_tag)
    checkpoint = SweepCheckpoint(tag=f"sweep-{signature[:12]}",
                                 signature=signature)
    if not args.resume:
        checkpoint.clear()
    deadline = (time.time() + args.deadline
                if args.deadline is not None else None)
    if args.sampled:
        print("SAMPLED sweep: totals are extrapolated, never exact",
              file=sys.stderr)
    try:
        batches = run_grid(names, points, scale=args.scale,
                           use_cache=not args.no_cache,
                           workers=args.workers,
                           checkpoint=checkpoint, deadline=deadline,
                           windows=args.windows, warmup=args.warmup,
                           sampled=args.sampled, progress=args.progress)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SuiteDeadlineExceeded as exc:
        for batch in exc.results:
            print(_render_grid_matrix(batch))
            print()
        if args.json:
            # Write what finished so automation sees the partial matrix
            # (and any pool fallbacks) instead of an absent file.
            payload = _grid_json_payload(points, exc.results, args.scale)
            payload["partial"] = True
            payload["remaining"] = list(exc.remaining)
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            print(f"wrote {args.json} (partial)")
        print(f"deadline lapsed: {len(exc.remaining)} workload(s) "
              f"remaining ({', '.join(exc.remaining)}); "
              "re-run with --resume to finish", file=sys.stderr)
        return 3
    checkpoint.clear()
    for batch in batches:
        print(_render_grid_matrix(batch))
        print()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(_grid_json_payload(points, batches, args.scale),
                      handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


def _render_multicore(payload: dict) -> str:
    """Human-readable scenario report from a multicore payload."""
    from ..core.report import format_percent

    l2 = (f"{payload['l2_kib']}KiB" if payload.get("l2_kib")
          else "512KiB")
    bus = "shared" if payload.get("shared_bus") else "private"
    lines = [
        f"scenario {payload['scenario']}  scale {payload['scale']:g}  "
        f"cores {len(payload['cores'])}  bus {bus}  "
        f"arbitration {payload['arbitration']}  L2 {l2}",
        f"lockstep cycles {payload['cycles']}  "
        f"wall {payload['wall_s']:.3f}s"
        + ("  (cached)" if payload.get("from_cache") else ""),
    ]
    for core in payload["cores"]:
        lines.append("")
        head = (f"core {core['index']}: {core['workload']} @ "
                f"{core['config']}")
        if core.get("idle"):
            lines.append(f"{head}  [idle]")
            continue
        lines.append(head)
        lines.append(f"  cycles {core['cycles']}  "
                     f"instret {core['instret']}  "
                     f"IPC {core['ipc']:.3f}  "
                     f"dominant {core['tma']['dominant']}")
        level1 = core["tma"]["level1"]
        lines.append("  TMA  " + "  ".join(
            f"{cls} {format_percent(frac)}"
            for cls, frac in sorted(level1.items())))
        attribution = core["attribution"]
        lines.append(
            f"  mem-bound {format_percent(attribution['mem_bound'])} = "
            f"self {format_percent(attribution['self'])} + "
            f"neighbor {format_percent(attribution['neighbor_induced'])}")
        uncore = core["uncore"]
        lines.append(
            f"  uncore  L2 {uncore['accesses']} accesses, "
            f"{uncore['misses']} misses "
            f"(self {uncore['self_misses']}, "
            f"neighbor-induced {uncore['neighbor_induced_misses']})  "
            f"bus wait self {uncore['bus_wait_self']} / "
            f"neighbor {uncore['bus_wait_neighbor']}  "
            f"bandwidth {format_percent(uncore['bandwidth_share'])}")
    return "\n".join(lines)


def _cmd_multicore(args: argparse.Namespace) -> int:
    from ..multicore import (
        SCENARIOS,
        MulticoreError,
        run_scenario_payload,
        scenario_names,
    )

    if args.list:
        for name in scenario_names():
            scenario = SCENARIOS[name]
            mix = ", ".join(f"{slot.workload}@{slot.config}"
                            for slot in scenario.slots)
            print(f"{name:<16s}{mix}")
            print(f"{'':<16s}{scenario.description}")
        return 0
    if not args.scenario:
        print("--scenario is required (or --list)", file=sys.stderr)
        return 2
    try:
        payload = run_scenario_payload(
            args.scenario, cores=args.cores, scale=args.scale,
            shared_bus=False if args.no_shared_bus else None,
            arbitration=args.arbitration, use_cache=not args.no_cache)
    except KeyError as exc:
        print(exc.args[0] if exc.args else str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"bad scenario spec: {exc}", file=sys.stderr)
        return 2
    except MulticoreError as exc:
        print(f"multicore run failed: {exc}", file=sys.stderr)
        return 1
    print(_render_multicore(payload))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


def _cmd_mix(args: argparse.Namespace) -> int:
    trace = build_trace(args.workload, scale=args.scale)
    histogram = trace.class_histogram()
    total = len(trace)
    print(f"instruction mix: {args.workload} "
          f"({total} dynamic instructions)")
    for cls, count in sorted(histogram.items(),
                             key=lambda kv: -kv[1]):
        print(f"  {cls.value:<10s}{count:>8d}  {100 * count / total:6.2f}%")
    summary = trace.mispredictable_summary()
    print(f"  branches: {summary['branches']} "
          f"({summary['taken']} taken)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    config = config_by_name(args.config)
    core = make_core(config)
    if isinstance(config, RocketConfig):
        bundle = rocket_tma_bundle()
    else:
        bundle = boom_tma_bundle(config.decode_width, config.issue_width)
    trace = build_trace(args.workload, scale=args.scale)
    tracer = capture_trace(core, trace, bundle)
    signals = {f.name: tracer.signal(f.name) for f in bundle.fields}
    names = (args.signals.split(",") if args.signals
             else [f.name for f in bundle.fields])
    for name in names:
        if name not in bundle:
            print(f"unknown signal {name!r}; bundle has "
                  f"{[f.name for f in bundle.fields]}", file=sys.stderr)
            return 1
    start = args.start
    if start < 0:
        anchor = find_first(signals, names[0])
        start = max(0, (anchor or 0) - 5)
    print(render_raster(signals, names, start, start + args.window))
    return 0


def _cmd_vlsi(args: argparse.Namespace) -> int:
    grid = sweep()
    print(f"{'config':<14s}{'arch':<13s}{'power%':>8s}{'area%':>8s}"
          f"{'wire%':>8s}{'csr ns':>8s}{'norm':>7s}")
    for name, per_arch in grid.items():
        base = per_arch["baseline"]
        for arch in ARCHITECTURES:
            result = per_arch[arch]
            print(f"{name:<14s}{arch:<13s}"
                  f"{100 * result.power_overhead:8.2f}"
                  f"{100 * result.area_overhead:8.2f}"
                  f"{100 * result.wirelength_overhead:8.2f}"
                  f"{result.longest_csr_path_ns:8.3f}"
                  f"{result.normalized_csr_path(base):7.3f}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    out_dir = Path(args.artifacts)
    if not out_dir.is_dir():
        print(f"no artifacts at {out_dir}; run "
              "`pytest benchmarks/ --benchmark-only` first",
              file=sys.stderr)
        return 1
    sections = sorted(out_dir.glob("*.txt"))
    if not sections:
        print(f"no .txt artifacts in {out_dir}", file=sys.stderr)
        return 1
    lines = ["# Reproduction report", "",
             "Collated from the benchmark harness's rendered artifacts "
             f"({len(sections)} experiments).", ""]
    for section in sections:
        lines.append(f"## {section.stem}")
        lines.append("")
        lines.append("```")
        lines.append(section.read_text(encoding="utf-8").rstrip())
        lines.append("```")
        lines.append("")
    report = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.output} ({len(sections)} sections)")
    else:
        print(report)
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    config = config_by_name(args.config)
    harness = PerfHarness(core=config.core,
                          increment_mode=args.counter_arch,
                          mode=args.mode)
    events = args.events.split(",") if args.events else None
    measurement = harness.measure(args.workload, config,
                                  event_names=events, scale=args.scale)
    print(f"workload={measurement.workload} config={config.name} "
          f"mode={args.mode} arch={args.counter_arch} "
          f"passes={measurement.passes}")
    print(f"cycles={measurement.cycles} instret={measurement.instret} "
          f"IPC={measurement.ipc:.3f}")
    for name, value in sorted(measurement.events.items()):
        print(f"  {name:<24s}{value}")
    if args.show_tma:
        print()
        print(render_result(compute_tma(measurement)))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from . import bench

    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            payload = bench.run_benchmarks(
                quick=args.quick, workers=args.workers,
                inject_slowdown=args.inject_slowdown)
        finally:
            profiler.disable()
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative")
        print(f"--- top {args.profile_top} cumulative hotspots ---")
        stats.print_stats(args.profile_top)
        if args.profile_output:
            with open(args.profile_output, "w", encoding="utf-8") as handle:
                pstats.Stats(profiler, stream=handle) \
                    .sort_stats("cumulative") \
                    .print_stats(args.profile_top)
            print(f"wrote {args.profile_output}")
    else:
        payload = bench.run_benchmarks(
            quick=args.quick, workers=args.workers,
            inject_slowdown=args.inject_slowdown)
    print(bench.render_payload(payload))
    bench.write_payload(payload, args.output)
    print(f"wrote {args.output}")

    baseline_path = args.baseline
    if baseline_path == "auto":
        baseline_path = bench.find_baseline(args.output)
    if not baseline_path or baseline_path == "none":
        print("no baseline BENCH_*.json; gate skipped")
        return 0
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    problems = bench.compare_benchmarks(payload, baseline,
                                        threshold=args.threshold,
                                        timing=not args.profile)
    if problems:
        print(f"REGRESSION vs {baseline_path}:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    if args.profile:
        print(f"gate vs {baseline_path}: identity checks passed; "
              "timing ratios skipped (profiler overhead distorts them)")
    else:
        print(f"gate passed vs {baseline_path} "
              f"(threshold {args.threshold:.0%})")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from . import cache

    if args.action == "stats":
        print(cache.usage().render())
        return 0
    # prune: explicit flags win; otherwise the env-var limits apply.
    max_bytes = args.max_bytes
    max_entries = args.max_entries
    if max_bytes is None and max_entries is None:
        max_bytes = cache.cache_limit_bytes()
        max_entries = cache.cache_limit_entries()
    if max_bytes is None and max_entries is None:
        print("nothing to prune: pass --max-bytes/--max-entries or set "
              "REPRO_CACHE_LIMIT_BYTES/REPRO_CACHE_LIMIT_ENTRIES",
              file=sys.stderr)
        return 1
    evicted = cache.prune(max_bytes=max_bytes, max_entries=max_entries)
    print(f"evicted {len(evicted)} entries")
    print(cache.usage().render())
    return 0


def _serve_until_signal(server, on_stop) -> int:
    """Run an HTTP server until SIGINT/SIGTERM, then shut down cleanly.

    Signal handlers must stay trivial: drain() takes locks and joins
    threads, neither of which is async-signal-safe to run inside a
    handler (a SIGTERM landing mid-lock would deadlock the handler
    against the interrupted frame).  The handler only sets an event;
    the main thread performs the graceful drain + server shutdown.
    """
    import signal
    import threading

    stop = threading.Event()

    def _request_shutdown(signum, frame):  # noqa: ARG001 - signal API
        print(f"\nsignal {signum}: shutting down...", file=sys.stderr)
        stop.set()

    signal.signal(signal.SIGINT, _request_shutdown)
    signal.signal(signal.SIGTERM, _request_shutdown)

    # serve_forever blocks; run it off-thread so the main thread is
    # free to wait for the stop event and run the shutdown sequence.
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    while not stop.is_set() and thread.is_alive():
        stop.wait(timeout=0.5)
    on_stop()
    server.shutdown()
    thread.join(timeout=5.0)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..service import TMAService, make_server

    kwargs = dict(workers=args.workers,
                  queue_capacity=args.queue_size,
                  executor=args.executor,
                  record_retention=args.record_retention)
    if args.shard_id:
        from ..service.shard import make_shard_service

        service = make_shard_service(args.shard_id, **kwargs)
    else:
        service = TMAService(**kwargs)
    service.start(resume=not args.no_resume)
    server = make_server(service, host=args.host, port=args.port,
                         verbose=args.verbose)
    host, port = server.server_address[:2]
    shard_note = f", shard={args.shard_id}" if args.shard_id else ""
    print(f"repro-tma service on http://{host}:{port} "
          f"(workers={args.workers}, executor={args.executor}, "
          f"queue={args.queue_size}{shard_note})", flush=True)
    print("POST /jobs · GET /jobs/<id> · GET /jobs/<id>/events · "
          "GET /metrics · GET /healthz · POST /admin/drain", flush=True)

    def _drain() -> None:
        report = service.drain()
        print(f"drained: {report}", file=sys.stderr)

    return _serve_until_signal(server, _drain)


def _cmd_gateway(args: argparse.Namespace) -> int:
    import os

    from ..service.gateway import Gateway, make_gateway_server
    from ..service.shard import SHARDS_ENV

    shards = args.shards or os.environ.get(SHARDS_ENV, "")
    if not shards:
        print(f"no shards: pass --shards or set {SHARDS_ENV}="
              "\"s1=http://host:port,...\"", file=sys.stderr)
        return 2
    gateway = Gateway(shards)
    server = make_gateway_server(gateway, host=args.host, port=args.port,
                                 verbose=args.verbose)
    host, port = server.server_address[:2]
    members = ", ".join(f"{shard_id}={url}"
                        for shard_id, url in sorted(gateway.urls.items()))
    print(f"repro-tma gateway on http://{host}:{port} "
          f"routing to [{members}]", flush=True)
    print("POST /jobs|/multicore|/grids · GET /jobs/<id>[/events] · "
          "GET /grids/<id> · GET /metrics · GET /healthz · "
          "POST /admin/{join,leave,evict,drain}", flush=True)
    return _serve_until_signal(server, lambda: None)


def _cmd_submit(args: argparse.Namespace) -> int:
    import time

    from ..service.client import JobRejected, ServiceClient, ServiceError

    client = ServiceClient(args.url, timeout=args.timeout)
    workloads = args.workload.split(",")
    # One absolute wall-clock cutoff shared by every wait below, so a
    # --deadline submission and the client watching it run on the same
    # clock (the jobs themselves carry deadline_seconds server-side).
    wait_deadline = (time.time() + args.deadline
                     if args.deadline is not None else None)
    fields = {"config": args.config, "scale": args.scale,
              "client": args.client, "priority": args.priority,
              "use_cache": not args.no_cache}
    if args.deadline is not None:
        fields["deadline_seconds"] = args.deadline
    if args.windows is not None:
        fields["windows"] = args.windows
        if args.warmup is not None:
            fields["warmup"] = args.warmup
        if args.sampled:
            fields["sampled"] = True
    receipts = []
    try:
        for workload in workloads:
            receipt = client.submit(workload.strip(), retries=args.retries,
                                    **fields)
            flag = " (deduped)" if receipt.get("deduped") else ""
            print(f"accepted {receipt['id']}{flag}")
            receipts.append(receipt)
    except JobRejected as rejected:
        print(f"rejected: retry after {rejected.retry_after:.2f}s",
              file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    if args.no_wait:
        return 0
    if args.stream:
        failed = 0
        for receipt in receipts:
            try:
                for event in client.stream(receipt["id"]):
                    name = event.get("event")
                    data = event.get("data", {})
                    if name == "progress":
                        print(f"{receipt['id']} {data.get('message')}",
                              file=sys.stderr)
                    else:
                        print(f"{receipt['id']} {name}"
                              + (f" [{data.get('state')}]"
                                 if name in ("failed", "rejected") else ""))
                    if (name in ("failed", "rejected", "requeued",
                                 "quarantined")):
                        failed += 1
            except ServiceError as exc:
                print(f"stream failed: {exc}", file=sys.stderr)
                failed += 1
        return 1 if failed else 0
    failed = 0
    for receipt in receipts:
        record = client.wait(receipt["id"], timeout=args.timeout,
                             deadline=wait_deadline)
        result = record.get("result") or {}
        if record["state"] == "done":
            tma = result.get("tma", {})
            windowed = result.get("windowed") or {}
            if windowed:
                tma = windowed.get("tma", tma)
            label = " SAMPLED" if result.get("sampled") else ""
            print(f"{record['id']} done{label} "
                  f"workload={record['job']['workload']} "
                  f"ipc={result.get('ipc', windowed.get('ipc'))} "
                  f"dominant={tma.get('dominant')} "
                  f"from_cache={result.get('from_cache')} "
                  f"latency={record.get('latency_seconds')}s")
        else:
            failed += 1
            print(f"{record['id']} {record['state']}: "
                  f"{record.get('error')}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from ..chaos.campaign import campaign_plan, run_campaign

    plan = campaign_plan(args.seed)
    overrides = {}
    for name in ("worker_kill_rate", "disk_fault_rate",
                 "client_fault_rate", "sched_stall_rate"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if overrides:
        from dataclasses import replace

        plan = replace(plan, **overrides)
    report = run_campaign(seed=args.seed, plan=plan,
                          workers=args.workers,
                          skip_service=args.skip_service)
    print(report.render())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
        print(f"wrote {args.report}")
    return 0 if report.passed else 1


def _cmd_reliability(args: argparse.Namespace) -> int:
    from ..reliability import run_campaign

    config = config_by_name(args.config)
    report = run_campaign(seed=args.seed, faults=args.faults,
                          workload=args.workload, config=config,
                          scale=args.scale, max_cycles=args.max_cycles)
    print(report.render())
    return 0 if report.passed else 1


def bench_default_output() -> str:
    """The bench snapshot filename for this PR (see ``tools.bench``)."""
    from .bench import DEFAULT_OUTPUT

    return DEFAULT_OUTPUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tma_tool", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered workloads")
    p_list.add_argument("--category", default=None,
                        choices=["micro", "spec", "case-study", "huge"])
    p_list.set_defaults(func=_cmd_list)

    p_tma = sub.add_parser("tma", help="TMA report for one workload")
    p_tma.add_argument("--workload", required=True)
    p_tma.add_argument("--top-only", action="store_true")
    _add_common(p_tma)
    _add_windowing(p_tma)
    p_tma.set_defaults(func=_cmd_tma)

    p_suite = sub.add_parser("suite", help="TMA table for a suite")
    p_suite.add_argument("--category", default="micro",
                         choices=["micro", "spec", "case-study", "huge"])
    p_suite.add_argument("--json", default=None,
                         help="also write the results as JSON")
    p_suite.add_argument("--csv", default=None,
                         help="also write the results as CSV")
    p_suite.add_argument("--resume", action="store_true",
                         help="resume from the suite checkpoint left by "
                              "a killed or deadline-lapsed run")
    p_suite.add_argument("--deadline", type=float, default=None,
                         help="wall-clock budget in seconds; progress is "
                              "checkpointed, exit code 3 when it lapses")
    _add_common(p_suite)
    _add_windowing(p_suite)
    p_suite.set_defaults(func=_cmd_suite)

    p_sweep = sub.add_parser(
        "sweep",
        help="batched design-space sweep: one trace pass, N configs")
    p_sweep.add_argument(
        "--grid", default=None,
        help="comma-separated config names or canonical grid point keys "
             "(default: the paper's rocket,small-boom,medium-boom,"
             "large-boom grid)")
    p_sweep.add_argument(
        "--vary", action="append", default=None, metavar="AXIS=V1,V2",
        help="variant axis crossed over the grid (repeatable); axes: "
             "l1d=<KiB>, bp=<tage|gshare|bimodal>, fetch=<width>")
    p_sweep.add_argument("--workloads", default=None,
                         help="comma-separated workload names "
                              "(default: --category)")
    p_sweep.add_argument("--category", default="micro",
                         choices=["micro", "spec", "case-study", "huge"])
    p_sweep.add_argument("--scale", type=float, default=1.0,
                         help="workload scale factor")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="bypass the on-disk result cache")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="process fan-out across grid points "
                              "(default: core count; 1 = inline "
                              "shared-trace path)")
    p_sweep.add_argument("--json", default=None,
                         help="also write the result matrix as JSON")
    p_sweep.add_argument("--resume", action="store_true",
                         help="resume from the sweep checkpoint left by "
                              "a killed or deadline-lapsed run")
    p_sweep.add_argument("--deadline", type=float, default=None,
                         help="wall-clock budget in seconds; progress is "
                              "checkpointed, exit code 3 when it lapses")
    _add_windowing(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_mc = sub.add_parser(
        "multicore",
        help="co-located cores over a shared uncore, with "
             "self-vs-neighbor Memory-Bound attribution")
    p_mc.add_argument("--scenario", default=None,
                      help="named scenario (see --list)")
    p_mc.add_argument("--list", action="store_true",
                      help="list the scenario registry and exit")
    p_mc.add_argument("--cores", type=int, default=None,
                      help="trim/pad the mix to N cores "
                           "(pads with idle slots)")
    p_mc.add_argument("--scale", type=float, default=None,
                      help="workload scale override")
    p_mc.add_argument("--arbitration", default=None,
                      choices=["round-robin", "fcfs"],
                      help="uncore bus arbitration override")
    p_mc.add_argument("--no-shared-bus", action="store_true",
                      help="give each core a private DRAM bus "
                           "(isolates L2 capacity contention)")
    p_mc.add_argument("--no-cache", action="store_true",
                      help="bypass the on-disk result cache")
    p_mc.add_argument("--json", default=None,
                      help="also write the scenario payload as JSON")
    p_mc.set_defaults(func=_cmd_multicore)

    p_mix = sub.add_parser("mix", help="dynamic instruction mix")
    p_mix.add_argument("--workload", required=True)
    p_mix.add_argument("--scale", type=float, default=1.0)
    p_mix.set_defaults(func=_cmd_mix)

    p_trace = sub.add_parser("trace", help="render a trace raster")
    p_trace.add_argument("--workload", required=True)
    p_trace.add_argument("--signals", default=None,
                         help="comma-separated signal names")
    p_trace.add_argument("--start", type=int, default=-1,
                         help="first cycle (-1: anchor at first event)")
    p_trace.add_argument("--window", type=int, default=80)
    _add_common(p_trace)
    p_trace.set_defaults(func=_cmd_trace)

    p_vlsi = sub.add_parser("vlsi", help="Fig. 9 overhead sweep")
    p_vlsi.set_defaults(func=_cmd_vlsi)

    p_report = sub.add_parser(
        "report", help="collate benchmark artifacts into one markdown")
    p_report.add_argument("--artifacts", default="benchmarks/out",
                          help="directory of rendered artifacts")
    p_report.add_argument("--output", default=None,
                          help="write to a file instead of stdout")
    p_report.set_defaults(func=_cmd_report)

    p_perf = sub.add_parser("perf", help="measure through the PMU stack")
    p_perf.add_argument("--workload", required=True)
    p_perf.add_argument("--events", default=None,
                        help="comma-separated event names")
    p_perf.add_argument("--counter-arch", default="adders",
                        choices=["classic", "adders", "distributed"])
    p_perf.add_argument("--mode", default="baremetal",
                        choices=["baremetal", "linux"])
    p_perf.add_argument("--show-tma", action="store_true")
    _add_common(p_perf)
    p_perf.set_defaults(func=_cmd_perf)

    p_bench = sub.add_parser(
        "bench",
        help="tier-2 benchmark set + BENCH_*.json regression gate")
    p_bench.add_argument("--quick", action="store_true",
                         help="CI-sized subset of the tier-2 set")
    p_bench.add_argument("--workers", type=int, default=None,
                         help="sweep workers (default min(4, cpus))")
    p_bench.add_argument("--threshold", type=float, default=0.20,
                         help="allowed fractional regression on gated "
                              "ratio metrics")
    p_bench.add_argument("--output", default=bench_default_output(),
                         help="snapshot to write")
    p_bench.add_argument("--baseline", default="auto",
                         help="baseline BENCH_*.json ('auto' picks the "
                              "newest committed one, 'none' skips)")
    p_bench.add_argument("--inject-slowdown", type=float, default=0.0,
                         help="artificial per-run slowdown fraction "
                              "(gate self-test)")
    p_bench.add_argument("--profile", action="store_true",
                         help="wrap the run in cProfile and print the "
                              "top cumulative hotspots")
    p_bench.add_argument("--profile-top", type=int, default=25,
                         help="hotspot rows to print with --profile")
    p_bench.add_argument("--profile-output", default="BENCH_PROFILE.txt",
                         help="also write the profile table here "
                              "('' to skip)")
    p_bench.set_defaults(func=_cmd_bench)

    p_cache = sub.add_parser(
        "cache", help="result-cache size report and LRU pruning")
    p_cache.add_argument("action", choices=["stats", "prune"])
    p_cache.add_argument("--max-bytes", type=int, default=None,
                         help="prune until the store is under this many "
                              "bytes (default: REPRO_CACHE_LIMIT_BYTES)")
    p_cache.add_argument("--max-entries", type=int, default=None,
                         help="prune until at most this many entries "
                              "(default: REPRO_CACHE_LIMIT_ENTRIES)")
    p_cache.set_defaults(func=_cmd_cache)

    p_serve = sub.add_parser(
        "serve", help="run the queue-driven TMA analysis service")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321,
                         help="TCP port (0 = ephemeral)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="worker-pool size")
    p_serve.add_argument("--queue-size", type=int, default=256,
                         help="admission-queue bound (backpressure above)")
    p_serve.add_argument("--executor", default="process",
                         choices=["process", "thread", "inline", "shard"],
                         help="worker execution style (shard: forward "
                              "jobs to the REPRO_SHARDS cluster)")
    p_serve.add_argument("--shard-id", default=None,
                         help="serve as one member of a shard cluster: "
                              "sets the shard identity reported by "
                              "/healthz and namespaces the drain-"
                              "persistence file")
    p_serve.add_argument("--record-retention", type=int, default=4096,
                         help="finished job records kept queryable "
                              "before the oldest are evicted")
    p_serve.add_argument("--no-resume", action="store_true",
                         help="skip resubmitting drain-persisted jobs")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every HTTP request to stderr")
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit job(s) to a running service")
    p_submit.add_argument("--url", default="http://127.0.0.1:8321")
    p_submit.add_argument("--workload", required=True,
                          help="workload name (comma-separate for several)")
    p_submit.add_argument("--client", default="cli",
                          help="client id for fair-share accounting")
    p_submit.add_argument("--priority", type=int, default=1,
                          help="0 (most urgent) .. 9")
    p_submit.add_argument("--retries", type=int, default=5,
                          help="retry-after-429 attempts per job")
    p_submit.add_argument("--timeout", type=float, default=120.0,
                          help="per-request / per-wait timeout (seconds)")
    p_submit.add_argument("--no-wait", action="store_true",
                          help="submit and exit without polling results")
    p_submit.add_argument("--deadline", type=float, default=None,
                          help="per-job execution budget in seconds, "
                               "enforced by the service's workers and "
                               "shared by the client-side wait")
    p_submit.add_argument("--stream", action="store_true",
                          help="follow each job's SSE lifecycle stream "
                               "instead of polling")
    _add_common(p_submit)
    _add_windowing(p_submit)
    p_submit.set_defaults(func=_cmd_submit)

    p_gateway = sub.add_parser(
        "gateway",
        help="run the stateless multi-shard routing gateway")
    p_gateway.add_argument("--host", default="127.0.0.1")
    p_gateway.add_argument("--port", type=int, default=8320,
                           help="TCP port (0 = ephemeral)")
    p_gateway.add_argument("--shards", default=None,
                           help="cluster spec "
                                "\"s1=http://h:p,s2=http://h:p\" "
                                "(default: REPRO_SHARDS)")
    p_gateway.add_argument("--verbose", action="store_true",
                           help="log every HTTP request to stderr")
    p_gateway.set_defaults(func=_cmd_gateway)

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded chaos campaign: inject faults, verify invariants")
    p_chaos.add_argument("--seed", type=int, default=1234,
                         help="chaos seed; the full fault schedule and "
                              "the report are functions of it")
    p_chaos.add_argument("--workers", type=int, default=2,
                         help="sweep-phase pool workers")
    p_chaos.add_argument("--worker-kill-rate", type=float, default=None,
                         help="override the plan's worker-kill rate")
    p_chaos.add_argument("--disk-fault-rate", type=float, default=None,
                         help="override the plan's disk-fault rate")
    p_chaos.add_argument("--client-fault-rate", type=float, default=None,
                         help="override the plan's client-fault rate")
    p_chaos.add_argument("--sched-stall-rate", type=float, default=None,
                         help="override the plan's scheduler-stall rate")
    p_chaos.add_argument("--skip-service", action="store_true",
                         help="run only the sweep phases")
    p_chaos.add_argument("--report", default=None,
                         help="also write the JSON report here")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_rel = sub.add_parser(
        "reliability",
        help="fault-injection campaign + TMA invariant audit")
    p_rel.add_argument("--faults", type=int, default=5,
                       help="number of faults to inject (>=5 covers "
                            "every fault class)")
    p_rel.add_argument("--seed", type=int, default=0,
                       help="campaign seed (faults are deterministic)")
    p_rel.add_argument("--workload", default="median")
    p_rel.add_argument("--config", default="large-boom",
                       choices=sorted(CONFIGS_BY_NAME))
    p_rel.add_argument("--scale", type=float, default=0.3)
    p_rel.add_argument("--max-cycles", type=int, default=200_000,
                       help="per-run watchdog budget (cycles)")
    p_rel.set_defaults(func=_cmd_reliability)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
