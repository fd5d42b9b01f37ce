"""Regenerate ``tests/golden_digests.json``, the simulated-results oracle.

The digests pin what the timing models produce, so the cores keep one
cycle loop each and need no second implementation to compare against.
Regenerate only in a change that is *meant* to alter simulated results,
and say so in that change; a refactor must leave every digest as it is.

Run from the repository root::

    PYTHONPATH=src python tests/make_golden_digests.py

Each digest is the sha256 of a canonical JSON document (sorted keys,
floats in ``repr`` form, so every bit of every number counts).  The
families are:

- ``core``: the full ``CoreResult`` surface plus TMA level 1 and 2 for
  every registry workload on Rocket and the three BOOM sizes, and at
  scale 0.02 on the other configs the cores take (``@0.02`` keys);
- ``signals``: the per-cycle ``{event: lane_mask}`` stream a recorded
  run expands to, plus the run's ``CoreResult``;
- ``pmu``: ``PerfHarness`` read-backs under each counter architecture,
  and runs with injected faults;
- ``tracer``: ``CycleTracer`` records and ``AutoCounter`` totals;
- ``multicore``: every registry scenario through the lockstep path, as
  registered and again under ``fcfs`` and with a private DRAM bus;
- ``trace``: the functional executor's ``ColumnarTrace`` for every
  registry workload at scale 1.0 (static ops, a sha256 per column, CSR
  writes and end-of-run state);
- ``level3``: third-level TMA (Memory-Bound drill-down, the TLB-bound
  upper bound, Rocket's Core-Bound split) and its rendered class tree;
- ``perlane``: Table V per-lane rates and the §V-A single-lane
  approximation on every BOOM size;
- ``vlsi``: every ``FlowResult`` field of the calibrated Fig. 9 sweep,
  and the calibration factors themselves;
- ``temporal``: Fig. 8's temporal TMA, Table VI's overlap bound and the
  recovery-sequence CDF over a captured cycle trace, plus the
  trace bridge's encoded bytes;
- ``mux``: time-multiplexed counter estimates (``measure_sampled``);
- ``pmu-grouped``: several events mapped onto one counter each
  (``PerfHarness.measure_grouped``) under every counter architecture.

``tests/test_golden_digests.py`` recomputes every entry with the
builders below and compares.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_digests.json"

SCALE = 0.3

#: The cross-section the signal-stream digests cover.
STREAM_WORKLOADS = ("dhrystone", "median", "memcpy", "mergesort", "qsort",
                    "spmv", "towers", "vvadd")
STREAM_CONFIGS = ("rocket", "small-boom", "large-boom")
CORE_CONFIGS = ("rocket", "small-boom", "medium-boom", "large-boom")
PMU_PAIRS = (("median", "rocket"), ("qsort", "small-boom"),
             ("spmv", "large-boom"))
#: The configs only the small-scale ``core`` digests cover, and their scale.
SMALL_CORE_CONFIGS = ("mega-boom", "giga-boom", "large-boom+prefetch",
                      "small-boom+gshare")
SMALL_CORE_SCALE = 0.02
#: The uncore variants the ``multicore`` digests cover beyond the default.
MULTICORE_VARIANTS = (("fcfs", {"arbitration": "fcfs"}),
                      ("private-bus", {"shared_bus": False}))
#: ``505.mcf_r`` is the TLB-bound case of the level-3 drill-down.
LEVEL3_PAIRS = (("505.mcf_r", "rocket"), ("505.mcf_r", "large-boom"),
                ("coremark", "rocket"), ("memcpy", "large-boom"))
PERLANE_WORKLOADS = ("505.mcf_r", "mm")
BOOM_SIZES = ("small-boom", "medium-boom", "large-boom", "mega-boom",
              "giga-boom")
TEMPORAL_PAIRS = (("mergesort", "large-boom"), ("qsort", "small-boom"),
                  ("towers", "rocket"))
#: Multiplexed groups per core, and the rotation intervals pinned.
MUX_GROUPS = {
    "boom": (("uops_issued", "uops_retired"),
             ("fetch_bubbles", "recovering"),
             ("dcache_blocked", "icache_blocked")),
    "rocket": (("instr_retired", "branch"),
               ("fetch_bubbles", "recovering"),
               ("icache_blocked", "dcache_blocked")),
}
MUX_RUNS = (("qsort", "large-boom", 50), ("qsort", "large-boom", 1000),
            ("median", "rocket", 200))
#: Same-set events sharing one counter (§II-A, Fig. 1).
GROUPED_EVENTS = {
    "boom": (("icache_miss", "dcache_miss"),
             ("fetch_bubbles", "recovering"),
             ("uops_retired",)),
    "rocket": (("load", "store"),
               ("icache_blocked", "dcache_blocked", "load_use_interlock"),
               ("fetch_bubbles",)),
}
GROUPED_PAIRS = (("median", "large-boom"), ("vvadd", "rocket"))


def digest(document: Any) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _config(name: str):
    """A registry config, or ``<name>+prefetch`` / ``<name>+<predictor>``."""
    from dataclasses import replace
    from repro.cores.configs import config_by_name
    name, _, variant = name.partition("+")
    config = config_by_name(name)
    if variant == "prefetch":
        return replace(config, dcache_prefetch=True)
    if variant:
        return replace(config, branch_predictor=variant)
    return config


def config_key(config) -> str:
    """The registry name digest keys use for *config*."""
    from repro.cores.configs import CONFIGS_BY_NAME
    return next(key for key, value in CONFIGS_BY_NAME.items()
                if value == config)


def _core(config_name: str):
    from repro.pmu.harness import make_core
    return make_core(_config(config_name))


def _trace(workload: str, scale: float = SCALE):
    from repro.workloads import build_trace
    return build_trace(workload, scale=scale)


def result_document(result) -> Dict[str, Any]:
    """Every simulated field of a ``CoreResult`` plus TMA level 1/2."""
    from repro.core import compute_tma
    tma = compute_tma(result)
    return {
        "cycles": result.cycles, "instret": result.instret,
        "events": dict(result.events),
        "lane_events": {k: list(v) for k, v in result.lane_events.items()},
        "l1i": dataclasses.asdict(result.l1i_stats),
        "l1d": dataclasses.asdict(result.l1d_stats),
        "l2": dataclasses.asdict(result.l2_stats),
        "predictor": dataclasses.asdict(result.predictor_stats),
        "extra": dict(result.extra),
        "tma_level1": dict(tma.level1), "tma_level2": dict(tma.level2),
    }


def stream_document(stream) -> Dict[str, Any]:
    """A ``SignalStream`` hashed cycle by cycle, non-zero masks sorted."""
    hashed = hashlib.sha256()
    cycles = 0
    for cycle, signals in stream.cycles():
        hashed.update(repr((cycle, sorted(signals.items()))).encode())
        cycles += 1
    return {"observed_cycles": cycles, "stream": hashed.hexdigest()}


class WindowStall:
    """Fault hook freezing every third cycle of ``[start, stop)``."""

    def __init__(self, start: int, stop: int) -> None:
        self.start = start
        self.stop = stop

    def stall_window(self, cycle: int, end: int):
        first = max(cycle, self.start)
        first += -first % 3
        return (first, first + 1) if first < self.stop else None


# ----------------------------------------------------------------------
# (a) CoreResult + TMA across the registry


def core_doc(workload: str, config_name: str,
             scale: float = SCALE) -> Dict[str, Any]:
    return result_document(_core(config_name).run(_trace(workload, scale)))


# ----------------------------------------------------------------------
# (b) per-cycle signal streams


def stream_doc(workload: str, config_name: str) -> Dict[str, Any]:
    from repro.cores import SignalStream
    stream = SignalStream()
    result = _core(config_name).run(_trace(workload), stream=stream)
    return {"signals": stream_document(stream),
            "result": result_document(result)}


def stall_window_doc(workload: str, config_name: str) -> Dict[str, Any]:
    """A releasing stall: stalled cycles count in ``cycles`` only."""
    from repro.cores import SignalStream
    core = _core(config_name)
    core.fault_hook = WindowStall(40, 400)
    stream = SignalStream()
    result = core.run(_trace(workload), stream=stream)
    return {"signals": stream_document(stream),
            "result": result_document(result)}


# ----------------------------------------------------------------------
# (c) PMU read-backs


def _core_name(config_name: str) -> str:
    return _config(config_name).core


def measurement_document(measurement) -> Dict[str, Any]:
    return {"workload": measurement.result.workload,
            "counters": dict(measurement.events),
            "mcycle": measurement.cycles, "minstret": measurement.instret,
            "passes": measurement.passes,
            "result": result_document(measurement.result)}


def pmu_doc(workload: str, config_name: str, mode: str,
            boot: str = "baremetal") -> Dict[str, Any]:
    from repro.pmu.harness import PerfHarness
    harness = PerfHarness(core=_core_name(config_name),
                          increment_mode=mode, mode=boot)
    return measurement_document(
        harness.measure(workload, _config(config_name), scale=SCALE))


def _fault(kind: str):
    from repro.chaos.model import FaultInjector, FaultSpec
    return FaultInjector(FaultSpec(kind=kind, seed=1234,
                                   event="instr_retired", drop_rate=0.4,
                                   keep_fraction=0.45, stall_at=150))


def pmu_fault_doc(workload: str, config_name: str,
                  kind: str) -> Dict[str, Any]:
    """``PerfHarness.measure`` with one injected fault."""
    from repro.pmu.harness import PerfHarness
    injector = _fault(kind)
    harness = PerfHarness(core=_core_name(config_name),
                          increment_mode="distributed",
                          fault_injector=injector)
    doc = measurement_document(
        harness.measure(workload, _config(config_name), scale=SCALE))
    doc["injections"] = injector.injections
    return doc


def pmu_stall_doc(workload: str, config_name: str) -> Dict[str, Any]:
    """A ``stall-core`` fault: the watchdog fires, counters stop early."""
    from repro.cores import SignalStream
    from repro.isa.errors import RunTimeout
    from repro.pmu.csr import CsrFile
    from repro.pmu.harness import PerfHarness
    injector = _fault("stall-core")
    core_name = _core_name(config_name)
    harness = PerfHarness(core=core_name, increment_mode="classic")
    (assignment,) = harness.plan(["cycles", "instr_retired"]
                                 if core_name == "rocket"
                                 else ["cycles", "uops_issued"])
    core = _core(config_name)
    core.fault_hook = injector
    csr = CsrFile(core=core_name, increment_mode="classic",
                  fault_injector=injector)
    harness.setup(csr, assignment)
    stream = SignalStream()
    try:
        core.run(_trace(workload), max_cycles=600, stream=stream)
        timeout: Dict[str, Any] = {}
    except RunTimeout as exc:
        timeout = {"invariant": exc.invariant, "observed": exc.observed,
                   "expected": exc.expected}
    csr.count(stream)
    csr.drain()
    return {"timeout": timeout, "injections": injector.injections,
            "mcycle": csr.mcycle, "minstret": csr.minstret,
            "counters": {str(index): csr.corrected_value_for(index)
                         for index, _ in assignment.slots}}


# ----------------------------------------------------------------------
# (d) cycle tracer and AutoCounter


def tracer_doc(workload: str, config_name: str) -> Dict[str, Any]:
    from repro.cores import SignalStream
    from repro.trace.autocounter import AutoCounter, CounterAnnotation
    from repro.trace.bundle import boom_tma_bundle, rocket_tma_bundle
    from repro.trace.tracer import CycleTracer
    config = _config(config_name)
    core = _core(config_name)
    if config.core == "rocket":
        bundle = rocket_tma_bundle()
        annotations = [CounterAnnotation("ibuf_valid"),
                       CounterAnnotation("ibuf_ready"),
                       CounterAnnotation("instr_retired"),
                       CounterAnnotation("fetch_bubbles")]
    else:
        bundle = boom_tma_bundle(config.commit_width, config.issue_width)
        annotations = [CounterAnnotation("uops_issued"),
                       CounterAnnotation("uops_issued", label="issue_cycles",
                                         reduce="or"),
                       CounterAnnotation("fetch_bubbles"),
                       CounterAnnotation("dcache_blocked"),
                       CounterAnnotation("recovering")]
    tracer = CycleTracer(bundle)
    autocounter = AutoCounter(annotations, readout_interval=256)
    stream = SignalStream()
    core.run(_trace(workload), stream=stream)
    tracer.record(stream)
    autocounter.count(stream)
    return {"first_cycle": tracer.first_cycle, "records": tracer.records,
            "totals": autocounter.totals(), "cycles": autocounter.cycles,
            "samples": [[s.cycle, s.values] for s in autocounter.samples]}


# ----------------------------------------------------------------------
# (e) multicore scenarios through the lockstep path


def multicore_doc(scenario_name: str, **overrides: Any) -> Dict[str, Any]:
    from repro.multicore import get_scenario, run_scenario
    scenario = get_scenario(scenario_name).with_overrides(scale=SCALE,
                                                          **overrides)
    payload = run_scenario(scenario, force_lockstep=True).to_payload()
    payload.pop("wall_s")
    return payload


# ----------------------------------------------------------------------
# (f) functional traces


def trace_document(trace) -> Dict[str, Any]:
    """A ``ColumnarTrace`` in canonical form.

    Static ops are renumbered in first-execution order and unexecuted
    ones dropped, so the document pins the committed path, not the
    layout of the producer's static table.
    """
    order: Dict[int, int] = {}
    sidx = array("I", [order.setdefault(s, len(order)) for s in trace.sidx])
    static: List[Any] = [None] * len(order)
    for s, k in order.items():
        op = trace.static_ops[s]
        static[k] = [op.pc, op.cls.value, op.dest, list(op.srcs),
                     op.latency, op.mnemonic, op.mem_width, op.is_load,
                     op.is_store, op.is_branch, op.is_fence, op.csr]
    columns = {"sidx": sidx, "mem_addr": trace.mem_addr,
               "next_pc": trace.next_pc, "taken": trace.taken}
    return {
        "static": static,
        "columns": {name: hashlib.sha256(column.tobytes()).hexdigest()
                    for name, column in columns.items()},
        "csr_writes": sorted([i, v] for i, v in trace.csr_writes.items()),
        "exit_code": trace.exit_code, "halt_reason": trace.halt_reason,
        "final_int_regs": list(trace.final_int_regs),
        "instret": trace.instret,
    }


def trace_doc(workload: str) -> Dict[str, Any]:
    from repro.isa import execute
    from repro.workloads import build_program
    return trace_document(execute(build_program(workload)))


# ----------------------------------------------------------------------
# (g) level-3 TMA and the class tree


def level3_doc(workload: str, config_name: str) -> Dict[str, Any]:
    from repro.core import build_tree, compute_level3, render_tree
    level3 = compute_level3(_core(config_name).run(_trace(workload)))
    tree = build_tree(level3.base, level3)
    return {"l1_bound": level3.l1_bound, "l2_bound": level3.l2_bound,
            "dram_bound": level3.dram_bound,
            "tlb_bound": level3.tlb_bound,
            "core_breakdown": dict(level3.core_breakdown),
            "render": level3.render(),
            "tree": render_tree(level3.base, level3),
            "dominant_path": [node.name for node in tree.dominant_path()]}


# ----------------------------------------------------------------------
# (h) Table V per-lane rates


def perlane_doc(workload: str, config_name: str) -> Dict[str, Any]:
    from repro.core import (PER_LANE_EVENTS,
                            frontend_error_of_lane_approx,
                            frontend_point_error_of_lane_approx,
                            per_lane_rates, render_table5,
                            single_lane_approximation)
    config = _config(config_name)
    result = _core(config_name).run(_trace(workload))
    lane_counts = {"fetch_bubbles": config.decode_width,
                   "dcache_blocked": config.decode_width,
                   "uops_issued": config.issue_width}
    rates = per_lane_rates(result, lane_counts=lane_counts)
    approximations = {}
    for event in PER_LANE_EVENTS:
        approx = single_lane_approximation(result, event)
        approximations[event] = dict(dataclasses.asdict(approx),
                                     relative_error=approx.relative_error)
    return {"cycles": rates.cycles, "rates": rates.rates,
            "approximations": approximations,
            "frontend_error": frontend_error_of_lane_approx(result),
            "frontend_point_error":
                frontend_point_error_of_lane_approx(result),
            "table": render_table5([rates], lane_counts)}


# ----------------------------------------------------------------------
# (i) the Fig. 9 physical-design model


def vlsi_doc(config_name: str, architecture: str) -> Dict[str, Any]:
    from repro.vlsi import sweep
    results = sweep()[_config(config_name).name]
    flow = results[architecture]
    return dict(dataclasses.asdict(flow),
                passes_200mhz=flow.passes_200mhz,
                normalized_csr_path=flow.normalized_csr_path(
                    results["baseline"]))


def vlsi_calibration_doc() -> Dict[str, Any]:
    from repro.cores.configs import ALL_BOOM_CONFIGS
    from repro.vlsi import (floorplan, paper_calibration,
                            single_lane_wire_reduction)
    return {"calibration": paper_calibration(),
            "die_area": {config.name: floorplan(config).die_area
                         for config in ALL_BOOM_CONFIGS},
            "single_lane_wire_reduction": {
                config.name: single_lane_wire_reduction(config)
                for config in ALL_BOOM_CONFIGS}}


# ----------------------------------------------------------------------
# (j) temporal TMA over a captured cycle trace


def temporal_doc(workload: str, config_name: str) -> Dict[str, Any]:
    from repro.core import compute_tma
    from repro.trace import (DmaTraceReader, TraceBridge, analyze_overlap,
                             boom_tma_bundle, capture_trace,
                             check_fetch_bubble_formula, find_first,
                             length_cdf, modal_length, recovery_sequences,
                             render_raster, rocket_tma_bundle, temporal_tma,
                             validate_against_counters, windowed_tma)
    config = _config(config_name)
    if config.core == "rocket":
        bundle = rocket_tma_bundle()
    else:
        bundle = boom_tma_bundle(config.commit_width, config.issue_width)
    width = config.commit_width
    trace = _trace(workload)
    tracer = capture_trace(_core(config_name), trace, bundle)
    signals = {field.name: tracer.signal(field.name)
               for field in bundle.fields}
    encoded = TraceBridge(bundle, chunk_cycles=1024).encode(tracer)
    temporal = temporal_tma(signals, width)
    overlap = analyze_overlap(signals, width)
    lengths = [run.length for run in
               recovery_sequences(signals["recovering"])]
    first = find_first(signals, "recovering") or 0
    counters = compute_tma(_core(config_name).run(trace)).level1
    return {
        "bridge": hashlib.sha256(encoded).hexdigest(),
        "bridge_round_trip": DmaTraceReader(encoded).signals() == signals,
        "temporal": dataclasses.asdict(temporal),
        "fractions": temporal.fractions(),
        "windows": [dataclasses.asdict(window) for window in
                    windowed_tma(signals, width, window=512)],
        "validation": validate_against_counters(temporal, counters),
        "overlap": dict(dataclasses.asdict(overlap),
                        render=overlap.render()),
        "recovery_lengths": lengths,
        "recovery_cdf": length_cdf(lengths),
        "modal_length": modal_length(lengths),
        "fetch_bubble_mismatches": check_fetch_bubble_formula(signals),
        "raster": render_raster(signals, [f.name for f in bundle.fields],
                                max(0, first - 8), first + 24),
    }


# ----------------------------------------------------------------------
# (k) multiplexed and grouped counters


def mux_doc(workload: str, config_name: str,
            interval: int) -> Dict[str, Any]:
    from repro.pmu.sampling import measure_sampled
    config = _config(config_name)
    comparisons = measure_sampled(workload, config,
                                  MUX_GROUPS[config.core],
                                  interval=interval, scale=SCALE)
    return {"comparisons": [
        dict(dataclasses.asdict(c), relative_error=c.relative_error)
        for c in comparisons]}


def grouped_doc(workload: str, config_name: str,
                mode: str) -> Dict[str, Any]:
    from repro.pmu.harness import PerfHarness
    core_name = _core_name(config_name)
    harness = PerfHarness(core=core_name, increment_mode=mode)
    return harness.measure_grouped(workload, _config(config_name),
                                   GROUPED_EVENTS[core_name], scale=SCALE)


# ----------------------------------------------------------------------


def entries() -> List[Tuple[str, Callable[[], Dict[str, Any]]]]:
    """Every ``(key, document builder)`` pair the golden file holds."""
    from repro.multicore import scenario_names
    from repro.pmu.csr import INCREMENT_MODES
    from repro.vlsi import ARCHITECTURES
    from repro.workloads import workload_names

    out: List[Tuple[str, Callable[[], Dict[str, Any]]]] = []
    for workload in workload_names():
        for config in CORE_CONFIGS:
            out.append((f"core/{workload}/{config}",
                        lambda w=workload, c=config: core_doc(w, c)))
        for config in SMALL_CORE_CONFIGS:
            out.append((f"core/{workload}/{config}@{SMALL_CORE_SCALE}",
                        lambda w=workload, c=config:
                        core_doc(w, c, SMALL_CORE_SCALE)))
    for workload in STREAM_WORKLOADS:
        for config in STREAM_CONFIGS:
            out.append((f"signals/{workload}/{config}",
                        lambda w=workload, c=config: stream_doc(w, c)))
    for config in ("rocket", "medium-boom"):
        out.append((f"signals/stall-window/median/{config}",
                    lambda c=config: stall_window_doc("median", c)))
    for workload, config in PMU_PAIRS:
        for mode in INCREMENT_MODES:
            out.append((f"pmu/{workload}/{config}/{mode}",
                        lambda w=workload, c=config, m=mode:
                        pmu_doc(w, c, m)))
    out.append(("pmu/towers/rocket/adders/linux",
                lambda: pmu_doc("towers", "rocket", "adders", "linux")))
    for kind in ("truncate-trace", "drop-increments", "bitflip-counter"):
        for workload, config in (("qsort", "rocket"),
                                 ("median", "medium-boom")):
            out.append((f"pmu-fault/{kind}/{workload}/{config}",
                        lambda w=workload, c=config, k=kind:
                        pmu_fault_doc(w, c, k)))
    for config in ("rocket", "large-boom"):
        out.append((f"pmu-fault/stall-core/vvadd/{config}",
                    lambda c=config: pmu_stall_doc("vvadd", c)))
    out.append(("tracer/towers/rocket",
                lambda: tracer_doc("towers", "rocket")))
    out.append(("tracer/qsort/medium-boom",
                lambda: tracer_doc("qsort", "medium-boom")))
    for name in scenario_names():
        out.append((f"multicore/{name}", lambda n=name: multicore_doc(n)))
        for variant, overrides in MULTICORE_VARIANTS:
            out.append((f"multicore/{name}/{variant}",
                        lambda n=name, o=overrides: multicore_doc(n, **o)))
    for workload in workload_names():
        out.append((f"trace/{workload}", lambda w=workload: trace_doc(w)))
    for workload, config in LEVEL3_PAIRS:
        out.append((f"level3/{workload}/{config}",
                    lambda w=workload, c=config: level3_doc(w, c)))
    for workload in PERLANE_WORKLOADS:
        for config in BOOM_SIZES:
            out.append((f"perlane/{workload}/{config}",
                        lambda w=workload, c=config: perlane_doc(w, c)))
    for config in BOOM_SIZES:
        for architecture in ARCHITECTURES:
            out.append((f"vlsi/{config}/{architecture}",
                        lambda c=config, a=architecture: vlsi_doc(c, a)))
    out.append(("vlsi/calibration", vlsi_calibration_doc))
    for workload, config in TEMPORAL_PAIRS:
        out.append((f"temporal/{workload}/{config}",
                    lambda w=workload, c=config: temporal_doc(w, c)))
    for workload, config, interval in MUX_RUNS:
        out.append((f"mux/{workload}/{config}/{interval}",
                    lambda w=workload, c=config, i=interval:
                    mux_doc(w, c, i)))
    for workload, config in GROUPED_PAIRS:
        for mode in INCREMENT_MODES:
            out.append((f"pmu-grouped/{workload}/{config}/{mode}",
                        lambda w=workload, c=config, m=mode:
                        grouped_doc(w, c, m)))
    return out


def load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def main() -> int:
    golden = {key: digest(build()) for key, build in entries()}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden)} digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
