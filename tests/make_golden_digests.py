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
  every registry workload on Rocket and the three BOOM sizes;
- ``signals``: the per-cycle ``{event: lane_mask}`` stream an attached
  observer sees, plus the run's ``CoreResult``;
- ``pmu``: ``PerfHarness`` read-backs under each counter architecture,
  and runs with injected faults;
- ``tracer``: ``CycleTracer`` records and ``AutoCounter`` totals;
- ``multicore``: every registry scenario through the lockstep path.

``tests/test_golden_digests.py`` recomputes every entry with the
builders below and compares.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
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


def digest(document: Any) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _config(name: str):
    from repro.cores.configs import config_by_name
    return config_by_name(name)


def config_key(config) -> str:
    """The registry name digest keys use for *config*."""
    from repro.cores.configs import CONFIGS_BY_NAME
    return next(key for key, value in CONFIGS_BY_NAME.items()
                if value == config)


def _core(config_name: str):
    from repro.pmu.harness import make_core
    return make_core(_config(config_name))


def _trace(workload: str):
    from repro.workloads import build_trace
    return build_trace(workload, scale=SCALE, engine="compiled")


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


class SignalStreamRecorder:
    """Observer hashing every cycle's non-zero ``(name, mask)`` pairs."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.cycles = 0

    def on_cycle(self, cycle: int, signals) -> None:
        items = sorted((name, mask) for name, mask in signals.items()
                       if mask)
        self._hash.update(repr((cycle, items)).encode())
        self.cycles += 1

    def document(self) -> Dict[str, Any]:
        return {"observed_cycles": self.cycles,
                "stream": self._hash.hexdigest()}


class WindowStall:
    """Fault hook freezing every third cycle of ``[start, stop)``."""

    def __init__(self, start: int, stop: int) -> None:
        self.start = start
        self.stop = stop

    def stall_cycle(self, cycle: int) -> bool:
        return self.start <= cycle < self.stop and cycle % 3 == 0


# ----------------------------------------------------------------------
# (a) CoreResult + TMA across the registry


def core_doc(workload: str, config_name: str) -> Dict[str, Any]:
    return result_document(_core(config_name).run(_trace(workload)))


# ----------------------------------------------------------------------
# (b) per-cycle signal streams


def stream_doc(workload: str, config_name: str) -> Dict[str, Any]:
    core = _core(config_name)
    recorder = SignalStreamRecorder()
    core.add_observer(recorder)
    result = core.run(_trace(workload))
    return {"signals": recorder.document(),
            "result": result_document(result)}


def stall_window_doc(workload: str, config_name: str) -> Dict[str, Any]:
    """A releasing stall: stalled cycles count in ``cycles`` only."""
    core = _core(config_name)
    recorder = SignalStreamRecorder()
    core.add_observer(recorder)
    core.fault_hook = WindowStall(40, 400)
    result = core.run(_trace(workload))
    return {"signals": recorder.document(),
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
    from repro.reliability.faults import FaultInjector, FaultSpec
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
    core.add_observer(csr)
    try:
        core.run(_trace(workload), max_cycles=600)
        timeout: Dict[str, Any] = {}
    except RunTimeout as exc:
        timeout = {"invariant": exc.invariant, "observed": exc.observed,
                   "expected": exc.expected}
    csr.drain()
    return {"timeout": timeout, "injections": injector.injections,
            "mcycle": csr.mcycle, "minstret": csr.minstret,
            "counters": {str(index): csr.corrected_value_for(index)
                         for index, _ in assignment.slots}}


# ----------------------------------------------------------------------
# (d) cycle tracer and AutoCounter


def tracer_doc(workload: str, config_name: str) -> Dict[str, Any]:
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
    core.add_observer(tracer)
    core.add_observer(autocounter)
    core.run(_trace(workload))
    return {"first_cycle": tracer.first_cycle, "records": tracer.records,
            "totals": autocounter.totals(), "cycles": autocounter.cycles,
            "samples": [[s.cycle, s.values] for s in autocounter.samples]}


# ----------------------------------------------------------------------
# (e) multicore scenarios through the lockstep path


def multicore_doc(scenario_name: str) -> Dict[str, Any]:
    from repro.multicore import get_scenario, run_scenario
    scenario = get_scenario(scenario_name).with_overrides(scale=SCALE)
    payload = run_scenario(scenario, force_lockstep=True).to_payload()
    payload.pop("wall_s")
    return payload


# ----------------------------------------------------------------------


def entries() -> List[Tuple[str, Callable[[], Dict[str, Any]]]]:
    """Every ``(key, document builder)`` pair the golden file holds."""
    from repro.multicore import scenario_names
    from repro.pmu.csr import INCREMENT_MODES
    from repro.workloads import workload_names

    out: List[Tuple[str, Callable[[], Dict[str, Any]]]] = []
    for workload in workload_names():
        for config in CORE_CONFIGS:
            out.append((f"core/{workload}/{config}",
                        lambda w=workload, c=config: core_doc(w, c)))
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
