"""The reproduction's claims, one row each, as executable predicates.

Every row names the paper figure (or the "Beyond the paper" extension)
it comes from, the claim, the paper's value, a measurement over one
session's shared :class:`Results`, and either a predicate or the tier-1
test that already asserts it.  The table has three readers:

- ``tests/test_claims.py`` runs one case per claim id, so a failure
  names its figure, and fails when EXPERIMENTS.md quotes a measured
  value other than the one the table renders;
- ``repro-tma report`` renders id, figure, paper value, measured value
  and verdict.

The reproduction targets shape (who wins, which direction), not the
paper's absolute numbers (DESIGN.md §1).  Each measurement runs at the
scale the figure was always regenerated at, and a ``(workload, config,
scale)`` point runs once per :class:`Results`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Hashable, List, Optional

from ..core import (compute_level3, compute_tma,
                    frontend_point_error_of_lane_approx, per_lane_rates,
                    single_lane_approximation)
from ..core.tma import BoomTmaModel, TmaInputs
from ..cores import (ALL_BOOM_CONFIGS, GIGA_BOOM, LARGE_BOOM, MEGA_BOOM,
                     ROCKET, SMALL_BOOM, BoomCore, RocketCore, SignalStream)
from ..cores.base import RocketConfig
from ..pmu import (AddWiresCounterBank, ClassicOrCounter,
                   DistributedCounterBank, ScalarCounterBank,
                   measure_sampled, new_events_for_core)
from ..trace import (DmaTraceReader, TraceBridge, analyze_overlap,
                     boom_tma_bundle, capture_trace,
                     check_fetch_bubble_formula, find_first, length_cdf,
                     modal_length, recovery_sequences, rocket_tma_bundle,
                     temporal_tma)
from ..uarch.branch import DIRECTION_PREDICTORS
from ..uarch.cache import MemorySystem
from ..vlsi import single_lane_wire_reduction, sweep
from ..workloads import build_trace
from .tma_tool import micro_suite, rocket_with_l1d, run_core, spec_suite


class Results:
    """One session's measurements; every run in it happens once."""

    def __init__(self) -> None:
        self._memo: Dict[Hashable, Any] = {}

    def once(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def value(self, claim: "Claim") -> Dict[str, Any]:
        return self.once(("claim", claim.id), lambda: claim.measure(self))

    def core(self, workload: str, config, scale: float = 1.0):
        return self.once(("core", workload, config.name, scale),
                         lambda: run_core(workload, config, scale=scale))

    def tma(self, workload: str, config, scale: float = 1.0):
        return self.once(
            ("tma", workload, config.name, scale),
            lambda: compute_tma(self.core(workload, config, scale)))

    def signals(self, workload: str, config) -> Dict[str, List[int]]:
        """Every TMA signal of one traced run, one entry per cycle.

        Rocket traces come back through the DMA bridge, the path the
        paper's Fig. 3 trace took off the FPGA.
        """
        def capture():
            trace = build_trace(workload)
            if isinstance(config, RocketConfig):
                tracer = capture_trace(RocketCore(config), trace,
                                       rocket_tma_bundle())
                blob = TraceBridge(tracer.bundle).encode(tracer)
                return DmaTraceReader(blob).signals()
            bundle = boom_tma_bundle(config.decode_width,
                                     config.issue_width)
            tracer = capture_trace(BoomCore(config), trace, bundle)
            return {f.name: tracer.signal(f.name) for f in bundle.fields}
        return self.once(("signals", workload, config.name), capture)


@dataclass(frozen=True)
class Claim:
    """One claim: where it comes from, what is measured, what must hold.

    *measure* returns named values; *show* formats them into the
    measured text EXPERIMENTS.md quotes.  A claim has *holds*, its
    predicate, unless a tier-1 *test* (a pytest node id) already
    asserts it.
    """

    id: str
    figure: str
    claim: str
    paper: str
    measure: Callable[[Results], Dict[str, Any]]
    show: str
    holds: Optional[Callable[[Dict[str, Any]], bool]] = None
    test: Optional[str] = None

    def measured(self, results: Results) -> str:
        return self.show.format(**results.value(self))

    def verdict(self, results: Results) -> str:
        if self.test is not None:
            return f"tier-1 {self.test}"
        return "holds" if self.holds(results.value(self)) else "FAILS"


INTEGRATION = "tests/test_integration.py::"
VLSI = "tests/test_vlsi.py::"


def _level1(results, workloads, config, cls, scale=1.0):
    return {w: results.tma(w, config, scale).level1[cls] for w in workloads}


def _approx(actual, expected, rel=1e-6):
    """``actual == pytest.approx(expected, rel=rel)``."""
    return abs(actual - expected) <= max(rel * abs(expected), 1e-12)


def _named(results, workloads, config, cls):
    """Level-1 *cls* keyed by the bare proxy name (``505.mcf_r``: mcf)."""
    return {w.split(".")[-1].rsplit("_", 1)[0]: value
            for w, value in _level1(results, workloads, config,
                                    cls).items()}


# -- Fig. 3: the motivating frontend trace ----------------------------------

def _fig3a(r):
    signals = r.signals("mergesort", ROCKET)
    miss = find_first(signals, "icache_miss")
    blocked = signals["icache_blocked"]
    run = sum(1 for cycle in range(miss, min(miss + 200, len(blocked)))
              if blocked[cycle]) if miss is not None else 0
    return {"miss": miss, "run": run}


def _fig3b(r):
    """Fetch bubbles with no I$ miss or I$-blocked within +/-50 cycles."""
    signals = r.signals("median", ROCKET)
    bubbles, miss = signals["fetch_bubbles"], signals["icache_miss"]
    blocked = signals["icache_blocked"]
    n = len(bubbles)
    quiet = [cycle for cycle in range(500, n) if bubbles[cycle]
             and not any(miss[c] or blocked[c]
                         for c in range(max(0, cycle - 50),
                                        min(n, cycle + 50)))]
    return {"quiet": len(quiet),
            "recovering": bool(quiet) and bool(
                signals["recovering"][quiet[0]])}


def _fig3_formula(r):
    signals = r.signals("mergesort", ROCKET)
    return {"mismatches": check_fetch_bubble_formula(signals),
            "cycles": len(signals["fetch_bubbles"])}


# -- Table II, Fig. 7: the TMA model and its breakdowns ---------------------

def _tab2(r):
    result = BoomTmaModel().compute(
        TmaInputs.from_core_result(r.core("qsort", LARGE_BOOM)))
    one, two = result.level1, result.level2
    identities = (_approx(result.top_level_sum(), 1.0)
                  and _approx(two["branch_mispredicts"],
                              two["resteering"] + two["recovery_bubbles"])
                  and _approx(one["backend"],
                              two["core_bound"] + two["mem_bound"])
                  and _approx(one["frontend"],
                              two["fetch_latency"] + two["pc_resolution"]))
    return {"identities": "hold" if identities else "broken",
            "m_rl": result.metrics["m_rl"]}


PAPER_MICRO = ("memcpy", "coremark", "dhrystone", "mergesort", "qsort",
               "rsort", "towers", "median", "multiply")


def _fig7b(r):
    backend = _level1(r, PAPER_MICRO, ROCKET, "backend")
    memcpy = r.tma("memcpy", ROCKET)
    return {"backend": backend.pop("memcpy"), "next": max(backend.values()),
            "mem": memcpy.level2["mem_bound"]}


def _fig7g_x264(r):
    retiring = _named(r, spec_suite(), LARGE_BOOM, "retiring")
    x264 = retiring.pop("x264")
    retiring.pop("exchange2")
    top = max(retiring, key=retiring.get)
    return {"x264": x264, "top": top, "next": retiring[top],
            "ipc": r.tma("525.x264_r", LARGE_BOOM).ipc}


def _fig7g_frontend(r):
    frontend = _level1(r, spec_suite(), LARGE_BOOM, "frontend")
    perlbench = frontend.pop("500.perlbench_r")
    return {"perlbench": perlbench, "next": max(frontend.values())}


def _fig7i(r):
    results = [r.tma(w, LARGE_BOOM) for w in spec_suite()]
    bad_spec = sum(t.level1["bad_speculation"] for t in results)
    clears = sum(t.level2["machine_clears"] for t in results)
    return {"clears": clears, "bad_spec": bad_spec,
            "share": clears / max(bad_spec, 1e-9)}


def _pair(r, base, variant, config):
    """TMA of a case study's base and variant build on one core."""
    return r.tma(base, config), r.tma(variant, config)


def _fig7c(r):
    big, small = (r.tma("531.deepsjeng_r", rocket_with_l1d(32)),
                  r.tma("531.deepsjeng_r", rocket_with_l1d(16)))
    return {"slowdown": small.cycles / big.cycles - 1,
            "big": big.level1["backend"], "small": small.level1["backend"],
            "delta": small.level1["backend"] - big.level1["backend"]}


def _fig7d(r):
    base, inverted = _pair(r, "brmiss", "brmiss_inv", ROCKET)
    return {"ret0": base.level1["retiring"],
            "ret1": inverted.level1["retiring"],
            "bs0": base.level1["bad_speculation"],
            "bs1": inverted.level1["bad_speculation"]}


def _sched(r, config):
    base, sched = _pair(r, "coremark", "coremark_sched", config)
    return {"gain": base.cycles / sched.cycles - 1,
            "c0": base.cycles, "c1": sched.cycles,
            "backend": sched.level1["backend"] - base.level1["backend"],
            "core": sched.level2["core_bound"] - base.level2["core_bound"]}


def _fig7n(r):
    base, inverted = _pair(r, "brmiss", "brmiss_inv", LARGE_BOOM)
    return {"slowdown": inverted.cycles / base.cycles - 1,
            "bs0": base.level1["bad_speculation"],
            "bs1": inverted.level1["bad_speculation"]}


# -- Table V: per-lane events ------------------------------------------------

TABLE5_WORKLOADS = ("505.mcf_r", "523.xalancbmk_r", "541.leela_r",
                    "525.x264_r", "548.exchange2_r", "500.perlbench_r",
                    "mm", "memcpy")
TABLE5_LANES = {"fetch_bubbles": LARGE_BOOM.decode_width,
                "dcache_blocked": LARGE_BOOM.decode_width,
                "uops_issued": LARGE_BOOM.issue_width}


def _tab5_rows(r):
    return r.once("tab5", lambda: {
        w: per_lane_rates(r.core(w, LARGE_BOOM), lane_counts=TABLE5_LANES)
        for w in TABLE5_WORKLOADS})


def _tab5_lanes(r):
    rows = _tab5_rows(r).values()

    def ordered(bubbles):
        if len(bubbles) != 3 or sum(bubbles) == 0:
            return True
        return bubbles[0] <= bubbles[1] + 1e-9 <= bubbles[2] + 2e-9

    return {"rows": len(rows),
            "ordered": sum(ordered(row.rates.get("fetch_bubbles", []))
                           for row in rows),
            "in_range": all(0.0 <= rate <= 1.0 for row in rows
                            for rates in row.rates.values()
                            for rate in rates)}


def _tab5_fp_lane(r):
    rows = _tab5_rows(r)
    fp_lane = {w: row.rates["uops_issued"][-1] for w, row in rows.items()}
    return {"mm": fp_lane.pop("mm"), "others": max(fp_lane.values())}


# -- Table VI, Fig. 8: temporal TMA -------------------------------------------

TABLE6_WORKLOADS = ("mergesort", "rsort", "memcpy", "coremark", "towers",
                    "vvadd")
FIG8_WORKLOADS = ("qsort", "541.leela_r", "towers", "mergesort",
                  "500.perlbench_r")


def _tab6_signals(r):
    """Table VI's sample: the traces of six benchmarks, concatenated."""
    def merge():
        merged: Dict[str, List[int]] = {}
        for workload in TABLE6_WORKLOADS:
            for name, series in r.signals(workload, LARGE_BOOM).items():
                merged.setdefault(name, []).extend(series)
        return merged
    return r.once("tab6", merge)


def _tab6(r):
    signals = _tab6_signals(r)
    report = analyze_overlap(signals, LARGE_BOOM.decode_width, 50)
    return {"cycles": len(signals["recovering"]),
            "overlap": report.overlap_fraction,
            "within": report.overlap_slots <= report.total_slots,
            "fe": report.frontend_fraction,
            "fe_pert": report.frontend_perturbation,
            "bs": report.bad_spec_fraction,
            "bs_pert": report.bad_spec_perturbation}


def _tab6_padding(r):
    signals = _tab6_signals(r)
    return {f"pad{pad}": analyze_overlap(signals, LARGE_BOOM.decode_width,
                                         window_pad=pad).overlap_slots
            for pad in (10, 50)}


def _fig8a(r):
    signals = r.signals("mergesort", LARGE_BOOM)
    recovering, icache = signals["recovering"], signals["icache_miss"]
    blocked = signals["icache_blocked"]
    for cycle, flag in enumerate(recovering):
        if flag and any(icache[c] or blocked[c]
                        for c in range(max(0, cycle - 30),
                                       min(len(recovering), cycle + 30))):
            return {"cycle": cycle}
    return {"cycle": None}


def _fig8b(r):
    lengths = [sequence.length for workload in FIG8_WORKLOADS
               for sequence in recovery_sequences(
                   r.signals(workload, LARGE_BOOM)["recovering"])]
    return {"sequences": len(lengths), "mode": modal_length(lengths),
            "at_4": dict(length_cdf(lengths)).get(4, 0.0),
            "longest": max(lengths, default=0)}


# -- Fig. 9: physical design ---------------------------------------------------

def _vlsi(r):
    return r.once("vlsi", sweep)


def _fig9a_max(attribute):
    def measure(r):
        points = [(getattr(result, attribute), config, arch)
                  for config, per_arch in _vlsi(r).items()
                  for arch, result in per_arch.items()]
        value, config, arch = max(points)
        return {"max": value, "config": config, "arch": arch}
    return measure


def _fig9_timing(r):
    results = [result for per_arch in _vlsi(r).values()
               for result in per_arch.values()]
    return {"passing": sum(result.passes_200mhz for result in results),
            "points": len(results),
            "worst": max(result.longest_csr_path_ns for result in results)}


def _fig9b(r):
    def normalized(config, arch):
        per_arch = _vlsi(r)[config.name]
        return per_arch[arch].normalized_csr_path(per_arch["baseline"])
    return {"adders_small": normalized(SMALL_BOOM, "adders"),
            "adders_giga": normalized(GIGA_BOOM, "adders"),
            "dist_small": normalized(SMALL_BOOM, "distributed"),
            "dist_giga": normalized(GIGA_BOOM, "distributed")}


# -- §IV-B: counter architectures -------------------------------------------

COUNTER_EVENTS = [event.name for event in new_events_for_core("boom")]


def _counter_banks(r):
    """One recorded run of ``median`` counted by every architecture."""
    def count():
        stream = SignalStream()
        BoomCore(LARGE_BOOM).run(build_trace("median", scale=0.5),
                                 stream=stream)
        banks = (ScalarCounterBank("boom", COUNTER_EVENTS),
                 AddWiresCounterBank("boom", COUNTER_EVENTS),
                 DistributedCounterBank("boom", COUNTER_EVENTS),
                 ClassicOrCounter("boom", ["fetch_bubbles"]))
        for bank in banks:
            bank.count(stream)
        banks[2].drain()
        return banks
    return r.once("counters", count)


def _counter_exact(r):
    scalar, adders, distributed, _ = _counter_banks(r)
    return {"events": len(COUNTER_EVENTS),
            "exact": sum(adders.read_event(e) == scalar.read_event(e)
                         for e in COUNTER_EVENTS),
            "within": sum(distributed.read_event(e) <= scalar.read_event(e)
                          and distributed.undercount(e)
                          <= distributed.undercount_bound(e)
                          for e in COUNTER_EVENTS)}


def _counter_error(r):
    """Worst relative undercount over events the paper's size reaches."""
    scalar, _, distributed, _ = _counter_banks(r)
    errors = [distributed.undercount(e) / scalar.read_event(e)
              for e in COUNTER_EVENTS if scalar.read_event(e) >= 929]
    return {"events": len(errors), "worst": max(errors, default=0.0)}


def _counter_classic(r):
    scalar, _, _, classic = _counter_banks(r)
    return {"classic": classic.read(),
            "exact": scalar.read_event("fetch_bubbles")}


# -- Beyond the paper ----------------------------------------------------------

def _level3(r, workload, config=LARGE_BOOM):
    return r.once(("level3", workload, config.name),
                  lambda: compute_level3(r.core(workload, config)))


LEVEL3_POINTS = (("memcpy", LARGE_BOOM), ("531.deepsjeng_r", LARGE_BOOM),
                 ("505.mcf_r", LARGE_BOOM), ("coremark", ROCKET))


def _ext_level3(r):
    memcpy, mcf = _level3(r, "memcpy"), _level3(r, "505.mcf_r")
    return {"memcpy_dram": memcpy.dram_bound, "memcpy_l2": memcpy.l2_bound,
            "mcf": mcf.dram_bound,
            "deepsjeng": _level3(r, "531.deepsjeng_r").dram_bound}


def _ext_tlb(r):
    bounds = {w: _level3(r, w, c).tlb_bound for w, c in LEVEL3_POINTS}
    return {"mcf": bounds.pop("505.mcf_r"),
            "mcf_dram": _level3(r, "505.mcf_r").dram_bound,
            "others": max(bounds.values())}


def _ext_rocket_core(r):
    breakdown = _level3(r, "coremark", ROCKET).core_breakdown
    return {"present": bool(breakdown),
            "load_use": breakdown.get("load-use", 0.0),
            "muldiv": breakdown.get("mul/div", 0.0)}


def _ext_speedup(r):
    speedups = {w: r.core(w, ROCKET, 0.5).cycles
                / r.core(w, LARGE_BOOM, 0.5).cycles for w in spec_suite()}
    return {"min": min(speedups.values()),
            "exchange2": speedups["548.exchange2_r"],
            "xz": speedups["557.xz_r"]}


def _ext_dominant(r):
    dominant = {r.tma(w, config, 0.5).dominant_class()
                for w in ("505.mcf_r", "523.xalancbmk_r")
                for config in (ROCKET, LARGE_BOOM)}
    return {"dominant": "/".join(sorted(dominant))}


def _ext_dhrystone(r):
    ipcs = [r.core("dhrystone", config).ipc for config in ALL_BOOM_CONFIGS]
    return {"small": ipcs[0], "giga": ipcs[-1],
            "monotone": all(large > small * 0.95
                            for small, large in zip(ipcs, ipcs[1:]))}


def _ext_memcpy(r):
    small, large, giga = (r.tma("memcpy", config)
                          for config in (SMALL_BOOM, LARGE_BOOM, GIGA_BOOM))
    return {"c_small": small.cycles, "c_large": large.cycles,
            "c_giga": giga.cycles, "m_small": small.level2["mem_bound"],
            "m_giga": giga.level2["mem_bound"]}


def _ext_qsort(r):
    return {"small": r.tma("qsort", SMALL_BOOM).level1["bad_speculation"],
            "giga": r.tma("qsort", GIGA_BOOM).level1["bad_speculation"]}


def _ext_mrl(r):
    """Table II's M_rl swept against the traced Bad Speculation of qsort."""
    truth = temporal_tma(r.signals("qsort", LARGE_BOOM),
                         LARGE_BOOM.decode_width
                         ).fractions()["bad_speculation"]
    inputs = TmaInputs.from_core_result(r.core("qsort", LARGE_BOOM))
    deltas = [BoomTmaModel(recover_length=m_rl).compute(inputs)
              .level1["bad_speculation"] - truth for m_rl in range(9)]
    step = deltas[5] - deltas[4]
    return {"lowest": min(deltas), "step": step,
            "sorted": deltas == sorted(deltas),
            "linear": _approx(step, deltas[4] - deltas[3], rel=0.05)}


def _ext_icache_prefetch(r):
    off_config = replace(LARGE_BOOM, name="LargeBOOM-nopf",
                         icache_prefetch=False)
    on, off = (r.core("500.perlbench_r", LARGE_BOOM),
               r.core("500.perlbench_r", off_config))
    return {"m_on": on.l1i_stats.misses, "m_off": off.l1i_stats.misses,
            "c_on": on.cycles, "c_off": off.cycles,
            "fe_on": compute_tma(on).level1["frontend"],
            "fe_off": compute_tma(off).level1["frontend"]}


DRAM_GAPS = (0, 8, 16, 32)


def _ext_dram(r):
    trace = build_trace("memcpy")
    runs = [BoomCore(LARGE_BOOM,
                     memory=MemorySystem.build(dram_block_gap=gap)
                     ).run(trace) for gap in DRAM_GAPS]
    cycles = [run.cycles for run in runs]
    return {"c0": cycles[0], "c32": cycles[-1],
            "monotone": cycles == sorted(cycles),
            "m0": compute_tma(runs[0]).level2["mem_bound"],
            "m32": compute_tma(runs[-1]).level2["mem_bound"]}


def _ext_data_prefetch(r):
    pf_config = replace(LARGE_BOOM, name="LargeBOOM-dpf",
                        dcache_prefetch=True)
    values = {}
    for key, workload in (("vvadd", "vvadd"), ("mcf", "505.mcf_r")):
        trace = build_trace(workload)
        base = BoomCore(LARGE_BOOM).run(trace)
        core = BoomCore(pf_config)
        with_pf = core.run(trace)
        values[f"{key}_ratio"] = with_pf.cycles / base.cycles
        values[f"{key}_issued"] = core.dprefetcher.stats.issued
    return values


PREDICTOR_BASKET = ("coremark", "mergesort", "towers", "rsort", "qsort")


def _predictor_grid(r):
    """Every basket workload on LargeBOOM under each direction predictor."""
    return {(kind, w): r.core(w, replace(LARGE_BOOM,
                                         name=f"LargeBOOM-{kind}",
                                         branch_predictor=kind))
            for kind in DIRECTION_PREDICTORS for w in PREDICTOR_BASKET}


def _ext_tage(r):
    grid = _predictor_grid(r)

    def mispredicts(kind, workload):
        return grid[(kind, workload)].predictor_stats.direction_mispredicts

    cycles = {kind: sum(grid[(kind, w)].cycles for w in PREDICTOR_BASKET)
              for kind in DIRECTION_PREDICTORS}
    return {"fewest": all(mispredicts("tage", w) <= mispredicts(other, w)
                          for w in ("coremark", "towers")
                          for other in ("gshare", "bimodal")),
            "tage": cycles["tage"], "gshare": cycles["gshare"],
            "bimodal": cycles["bimodal"]}


def _ext_predictor_tracks(r):
    """Basket workloads whose Bad Speculation rises with mispredicts."""
    grid = _predictor_grid(r)
    spread = tracking = 0
    for workload in PREDICTOR_BASKET:
        points = sorted(
            (grid[(kind, workload)].predictor_stats.direction_mispredicts,
             compute_tma(grid[(kind, workload)]).level1["bad_speculation"])
            for kind in DIRECTION_PREDICTORS)
        # Only a substantial mispredict spread must move Bad Speculation.
        if points[-1][0] > 1.5 * (points[0][0] + 10):
            spread += 1
            tracking += points[-1][1] > points[0][1]
    return {"spread": spread, "tracking": tracking}


SAMPLING_GROUPS = [["uops_issued", "uops_retired"],
                   ["fetch_bubbles", "recovering"],
                   ["dcache_blocked", "icache_blocked"]]
SAMPLING_INTERVALS = (50, 200, 1000, 4000)


def _sampling(r):
    return r.once("sampling", lambda: {
        interval: measure_sampled("qsort", LARGE_BOOM, SAMPLING_GROUPS,
                                  interval=interval)
        for interval in SAMPLING_INTERVALS})


def _ext_sampling_error(r):
    errors = {interval: {c.event: abs(c.relative_error) for c in compared}
              for interval, compared in _sampling(r).items()}
    coarse = errors[SAMPLING_INTERVALS[-1]]
    return {"dense": max(errors[i]["uops_retired"]
                         for i in SAMPLING_INTERVALS[:-1]),
            "coarse_dense": coarse["uops_retired"],
            "coarse_burst": max(coarse["fetch_bubbles"],
                                coarse["icache_blocked"])}


def _ext_sampling_coverage(r):
    by_interval = _sampling(r)
    return {"bounded": all(0.0 < c.coverage < 1.0
                           for compared in by_interval.values()
                           for c in compared),
            "low": min(c.coverage for c in by_interval[50]),
            "high": max(c.coverage for c in by_interval[50])}


CLAIMS: List[Claim] = [
    # Fig. 3 (Rocket frontend trace).
    Claim("fig3a.icache-blocked-run", "Fig. 3a",
          "An I$ miss is followed by a run of I$-blocked cycles",
          "~40 cycles", _fig3a,
          "{run} I$-blocked cycles within 200 of mergesort's first miss",
          lambda v: v["miss"] is not None and v["run"] >= 10),
    Claim("fig3b.quiet-bubbles", "Fig. 3b",
          "Fetch bubbles appear with a warm I$, unexplained by I$ events",
          "shown", _fig3b,
          "{quiet} fetch-bubble cycles of median at least 50 cycles from "
          "any I$ activity",
          lambda v: v["quiet"] > 0 and not v["recovering"]),
    Claim("fig3.fetch-bubble-formula", "Fig. 3",
          "FetchBubble = not Recovering and (not IBuf-valid and "
          "IBuf-ready)", "definition", _fig3_formula,
          "{mismatches} mismatching cycles of {cycles}",
          lambda v: v["mismatches"] <= max(3, v["cycles"] // 1000)),
    # Table I (event lists).
    Claim("tab1.new-events", "Table I",
          "Icicle adds 3 Rocket and 7 BOOM events, all in the TMA set",
          "3 / 7",
          lambda r: {"rocket": len(new_events_for_core("rocket")),
                     "boom": len(new_events_for_core("boom"))},
          "{rocket} Rocket / {boom} BOOM new events",
          test="tests/test_pmu_events.py::"
               "test_icicle_adds_seven_boom_events"),
    # Table II (the TMA model).
    Claim("tab2.identities", "Table II",
          "Top level sums to 1; Backend = CoreBound + MemBound; Frontend "
          "= FetchLat + PCRes; BrMispred = Resteer + RecovBub",
          "M_rl = 4", _tab2,
          "identities {identities} on qsort; M_rl = {m_rl:g}",
          lambda v: v["identities"] == "hold" and v["m_rl"] == 4.0),
    # Fig. 7a/b (Rocket, microbenchmarks).
    Claim("fig7a.qsort-badspec", "Fig. 7a",
          "qsort's lost slots are dominated by Bad Speculation",
          "qsort BadSpec high",
          lambda r: _level1(r, ("qsort", "rsort"), ROCKET,
                            "bad_speculation"),
          "qsort BadSpec {qsort:.1%} vs rsort {rsort:.2%}",
          lambda v: v["qsort"] > 4 * v["rsort"]),
    Claim("fig7a.rsort-ipc", "Fig. 7a", "rsort reaches near-ideal IPC",
          "~1", lambda r: {"ipc": r.tma("rsort", ROCKET).ipc},
          "IPC {ipc:.2f}", lambda v: v["ipc"] > 0.6),
    Claim("fig7a.frontend-negligible", "Fig. 7a",
          "Frontend is negligible for the small benchmarks", "~0",
          lambda r: {"max": max(_level1(r, micro_suite(), ROCKET,
                                        "frontend").values())},
          "at most {max:.1%}", lambda v: v["max"] < 0.05),
    Claim("fig7b.memcpy-backend", "Fig. 7b",
          "memcpy has the largest Backend, about half of it Memory Bound",
          "yes", _fig7b,
          "memcpy Backend {backend:.1%} (next {next:.1%}), MemBound "
          "{mem:.1%} of slots",
          lambda v: v["backend"] >= v["next"]
          and v["mem"] > 0.3 * v["backend"]),
    # Fig. 7c-f (Rocket case studies).
    Claim("fig7c.deepsjeng-slowdown", "Fig. 7c",
          "deepsjeng slows down with a 16 KiB instead of 32 KiB L1D",
          "~7%", _fig7c, "{slowdown:.1%}",
          test=INTEGRATION
          + "test_cs1_smaller_l1d_raises_backend_and_slows_down"),
    Claim("fig7c.deepsjeng-backend", "Fig. 7c",
          "The slowdown shows up as Backend", "~0% to ~12% (+12 pts)",
          _fig7c, "{big:.1%} to {small:.1%} (+{delta:.1%})",
          test=INTEGRATION
          + "test_cs1_smaller_l1d_raises_backend_and_slows_down"),
    Claim("fig7d.inversion-retiring", "Fig. 7d",
          "Inverting the mispredicted branch raises Retiring",
          "20% to 33%", _fig7d, "{ret0:.1%} to {ret1:.1%}",
          lambda v: v["ret1"] > v["ret0"] + 0.1),
    Claim("fig7d.inversion-badspec", "Fig. 7d",
          "Inverting the mispredicted branch removes Bad Speculation",
          "17% to 6%", _fig7d, "{bs0:.1%} to {bs1:.2%}",
          lambda v: v["bs0"] > v["bs1"] + 0.1),
    Claim("fig7e.sched-gain", "Fig. 7e",
          "Instruction scheduling speeds CoreMark up on Rocket", "~4%",
          lambda r: _sched(r, ROCKET), "{gain:.1%}",
          lambda v: v["gain"] > 0.02),
    Claim("fig7f.sched-core-bound", "Fig. 7f",
          "The scheduling gain is explained by Core Bound",
          "Backend / Core Bound -4%", lambda r: _sched(r, ROCKET),
          "Backend {backend:+.1%}, CoreBound {core:+.1%}",
          lambda v: v["core"] < 0),
    # Fig. 7g-j (BOOM, SPEC proxies).
    Claim("fig7g.mcf-xalancbmk-backend", "Fig. 7g",
          "mcf and xalancbmk are almost 80% Backend Bound", "~80%",
          lambda r: _named(r, ("505.mcf_r", "523.xalancbmk_r"),
                           LARGE_BOOM, "backend"),
          "{mcf:.1%} / {xalancbmk:.1%}",
          lambda v: min(v.values()) > 0.6),
    Claim("fig7g.x264-retiring", "Fig. 7g",
          "x264 stands out with a high retire rate matching its IPC",
          "yes", _fig7g_x264,
          "Retiring {x264:.1%} ({top} {next:.1%}), IPC {ipc:.2f}",
          lambda v: v["x264"] > 0.8 * v["next"]),
    Claim("fig7g.x264-badspec", "Fig. 7g",
          "x264 has considerable Bad Speculation (the paper: the most)",
          "yes",
          lambda r: _named(r, ("525.x264_r", "520.omnetpp_r",
                               "531.deepsjeng_r"), LARGE_BOOM,
                           "bad_speculation"),
          "{x264:.1%}; omnetpp {omnetpp:.1%} and deepsjeng "
          "{deepsjeng:.1%} exceed it",
          lambda v: v["x264"] > 0.05),
    Claim("fig7g.frontend-minimal", "Fig. 7g",
          "Frontend remains minimal across all benchmarks", "yes",
          _fig7g_frontend, "at most {perlbench:.1%} (perlbench)",
          lambda v: max(v.values()) < 0.2),
    Claim("fig7h.perlbench-frontend", "Fig. 7h",
          "perlbench shows the most Frontend", "yes", _fig7g_frontend,
          "perlbench {perlbench:.1%}, every other proxy at most "
          "{next:.1%}",
          test=INTEGRATION
          + "test_spec_frontend_minimal_but_perlbench_largest"),
    Claim("fig7i.machine-clears", "Fig. 7i",
          "Machine clears are a small part of Bad Speculation", "yes",
          _fig7i, "machine clears {share:.1%} of the suite's BadSpec",
          lambda v: v["clears"] < 0.2 * max(v["bad_spec"], 1e-9)),
    Claim("fig7j.mcf-membound", "Fig. 7j",
          "mcf is Memory Bound where exchange2 is not", "yes",
          lambda r: {"mcf": r.tma("505.mcf_r", LARGE_BOOM)
                     .level2["mem_bound"],
                     "exchange2": r.tma("548.exchange2_r", LARGE_BOOM)
                     .level2["mem_bound"]},
          "MemBound {mcf:.1%} vs {exchange2:.1%}",
          lambda v: v["mcf"] > v["exchange2"]),
    # Fig. 7k/l (BOOM, microbenchmarks).
    Claim("fig7k.high-ipc", "Fig. 7k",
          "Dhrystone and CoreMark reach IPCs in the range of 2", "~2",
          lambda r: {w: r.tma(w, LARGE_BOOM).ipc
                     for w in ("dhrystone", "coremark")},
          "IPC {dhrystone:.2f} / {coremark:.2f}",
          lambda v: min(v.values()) > 1.8),
    Claim("fig7l.memcpy-membound", "Fig. 7l",
          "memcpy again stands out for being Memory Bound", "yes",
          lambda r: {"backend": r.tma("memcpy", LARGE_BOOM)
                     .level1["backend"],
                     "mem": r.tma("memcpy", LARGE_BOOM).level2["mem_bound"],
                     "core": r.tma("memcpy", LARGE_BOOM)
                     .level2["core_bound"]},
          "Backend {backend:.1%}, MemBound {mem:.1%}, CoreBound "
          "{core:.1%}",
          lambda v: v["mem"] > 0.3 and v["mem"] > v["core"]),
    # Fig. 7m/n (BOOM case studies).
    Claim("fig7m.sched-gain", "Fig. 7m",
          "Scheduling matters little on the out-of-order core", "~0.3%",
          lambda r: _sched(r, LARGE_BOOM),
          "{gain:.2%} (cycles {c0} to {c1})",
          lambda v: abs(v["gain"]) < 0.03),
    Claim("fig7n.base-badspec", "Fig. 7n",
          "The base branch layout has almost no Bad Speculation on BOOM",
          "~0%", _fig7n, "{bs0:.2%}", lambda v: v["bs0"] < 0.02),
    Claim("fig7n.inverted-slower", "Fig. 7n",
          "The inverted build is slower, explained by Bad Speculation",
          "~3%", _fig7n,
          "{slowdown:.1%} (BadSpec {bs0:.2%} to {bs1:.1%})",
          lambda v: v["slowdown"] > 0 and v["bs1"] > v["bs0"]),
    # Table V (per-lane events).
    Claim("tab5.fetch-bubble-lanes", "Table V",
          "Fetch-bubble lanes are correlated, lane 1 fires least", "yes",
          _tab5_lanes,
          "lane0 <= lane1 <= lane2 in {ordered} of {rows} rows",
          lambda v: v["ordered"] == v["rows"] and v["in_range"]),
    Claim("tab5.lane-approx-frontend", "Table V",
          "3 x (lane 1) approximates Frontend within +/-10 points",
          "+/-10%",
          lambda r: {"worst": max(
              abs(frontend_point_error_of_lane_approx(
                  r.core(w, LARGE_BOOM))) for w in TABLE5_WORKLOADS)},
          "worst error {worst:.2%} of total slots",
          lambda v: v["worst"] <= 0.10),
    Claim("tab5.uops-issued-approx-fails", "Table V",
          "The per-lane approximation fails for Uops-issued", "yes",
          lambda r: {"error": single_lane_approximation(
              r.core("mm", LARGE_BOOM), "uops_issued",
              lane=0).relative_error},
          "mm: W_I x lane0 off by {error:+.1%}",
          lambda v: abs(v["error"]) > 0.10),
    Claim("tab5.mm-fp-lane", "Table V", "mm uses the FP issue lane",
          "col 4 ~0.87", _tab5_fp_lane,
          "mm FP-lane rate {mm:.2f}, at most {others:.2f} elsewhere",
          lambda v: v["mm"] > v["others"]),
    # Table VI, Fig. 8 (temporal TMA).
    Claim("tab6.overlap-bound", "Table VI",
          "The Frontend/Bad-Speculation overlap is a small share of "
          "slots", "overlap 0.01%; Frontend 3.33% +/- 0.30%; BadSpec "
          "18.15% +/- 0.06%", _tab6,
          "{cycles} cycles; overlap {overlap:.2%}; Frontend {fe:.2%} "
          "+/- {fe_pert:.1%}; BadSpec {bs:.2%} +/- {bs_pert:.1%}",
          lambda v: v["cycles"] > 100_000 and v["overlap"] < 0.10
          and v["within"] and (v["fe"] <= 0.01 or v["fe_pert"] < 5.0)),
    Claim("tab6.padding-conservative", "Table VI",
          "A wider padding window can only grow the bound",
          "conservative", _tab6_padding,
          "{pad10} overlap slots at pad 10, {pad50} at pad 50",
          lambda v: v["pad50"] >= v["pad10"]),
    Claim("fig8a.overlap-excerpt", "Fig. 8a",
          "An I$ refill overlaps a Recovering window", "shown", _fig8a,
          "mergesort, first at cycle {cycle}",
          lambda v: v["cycle"] is not None),
    Claim("fig8b.recovery-mode", "Fig. 8b",
          "Almost every Recovering sequence is exactly 4 cycles",
          "mode = 4", _fig8b,
          "mode = {mode}, CDF(4) = {at_4:.1%} of {sequences} sequences",
          lambda v: v["mode"] == 4 and v["at_4"] > 0.5),
    Claim("fig8b.long-tail", "Fig. 8b",
          "Recovering sequences have a long tail", "yes", _fig8b,
          "longest {longest} cycles", lambda v: v["longest"] > 4),
    # Fig. 9 (physical design).
    Claim("fig9a.power", "Fig. 9a", "Worst power overhead", "+4.15%",
          _fig9a_max("power_overhead"), "+{max:.2%} ({config}, {arch})",
          test=VLSI + "test_overhead_ceilings_match_paper"),
    Claim("fig9a.area", "Fig. 9a", "Worst area overhead", "+1.54%",
          _fig9a_max("area_overhead"), "+{max:.2%} ({config}, {arch})",
          test=VLSI + "test_overhead_ceilings_match_paper"),
    Claim("fig9a.wirelength", "Fig. 9a", "Worst wirelength overhead",
          "+9.93%", _fig9a_max("wirelength_overhead"),
          "+{max:.2%} ({config}, {arch})",
          test=VLSI + "test_overhead_ceilings_match_paper"),
    Claim("fig9a.timing", "Fig. 9a", "All designs pass 200 MHz", "yes",
          _fig9_timing,
          "{passing} of {points}; worst CSR path {worst:.2f} ns",
          test=VLSI + "test_all_configs_pass_200mhz"),
    Claim("fig9b.crossover", "Fig. 9b",
          "Adders match distributed counters at small sizes and lose as "
          "the core widens", "crossover", _fig9b,
          "adders {adders_small:.3f} to {adders_giga:.3f}, distributed "
          "{dist_small:.3f} to {dist_giga:.3f} (Small to Giga)",
          test=VLSI + "test_fig9b_adders_distributed_crossover"),
    Claim("fig9.single-lane-wire", "§V-A",
          "Monitoring one lane shortens the longest PMU wire", "-11.39%",
          lambda r: {"cut": single_lane_wire_reduction(MEGA_BOOM)},
          "-{cut:.2%}",
          test=VLSI + "test_single_lane_wire_reduction_positive"),
    # §IV-B (counter architectures).
    Claim("sec4b.addwires-exact", "§IV-B",
          "AddWires values equal the scalar ground truth", "exact",
          _counter_exact, "exact for {exact} of {events} events",
          test=INTEGRATION + "test_counter_architectures_agree_on_real_run"),
    Claim("sec4b.distributed-undercount", "§IV-B",
          "Distributed counters never overcount; the undercount stays "
          "within sources x (2^N - 1)", "yes", _counter_exact,
          "within the bound for {within} of {events} events",
          test=INTEGRATION + "test_counter_architectures_agree_on_real_run"),
    Claim("sec4b.undercount-error", "§IV-B",
          "Worst-case error 12/(929+12) for the smallest benchmark",
          "1.28%", _counter_error,
          "worst {worst:.3%} over {events} events of 929+ counts",
          lambda v: v["worst"] <= 12 / (929 + 12) + 0.005),
    Claim("sec4b.classic-or-undercount", "§IV-B",
          "Classic OR counters undercount concurrent lanes", "implied",
          _counter_classic,
          "fetch_bubbles: {classic} via OR vs {exact} true",
          lambda v: v["exact"] == 0 or v["classic"] <= v["exact"]),
    # Beyond the paper: extensions and ablations.
    Claim("ext.level3-memory", "Extension",
          "Level-3 TMA separates DRAM-bound streaming from "
          "L1/L2-resident probing", "future work", _ext_level3,
          "memcpy DRAM {memcpy_dram:.1%} vs L2 {memcpy_l2:.1%}; mcf DRAM "
          "{mcf:.1%}; deepsjeng DRAM {deepsjeng:.1%}",
          lambda v: v["memcpy_dram"] > v["memcpy_l2"] and v["mcf"] > 0.4
          and v["deepsjeng"] < v["mcf"]),
    Claim("ext.tlb-bound", "Extension",
          "TLB-bound is negligible for kernels within the dTLB's reach and "
          "small next to DRAM-bound for mcf, whose pages exceed it",
          "future work", _ext_tlb,
          "memcpy, deepsjeng, Rocket CoreMark at most {others:.2%}; mcf "
          "{mcf:.1%} against DRAM-bound {mcf_dram:.1%}",
          lambda v: v["others"] < 0.05 and v["mcf"] < v["mcf_dram"]),
    Claim("ext.level3-rocket-core", "Extension",
          "Rocket's Core Bound splits into load-use and mul/div "
          "interlocks on CoreMark", "future work", _ext_rocket_core,
          "load-use {load_use:.1%}, mul/div {muldiv:.1%}",
          lambda v: v["present"] and v["load_use"] > 0.01
          and v["muldiv"] > 0.01),
    Claim("ext.rocket-spec-mcf", "Extension",
          "mcf stays Memory Bound on the in-order core", "Table III",
          lambda r: {"backend": r.tma("505.mcf_r", ROCKET, 0.5)
                     .level1["backend"],
                     "mem": r.tma("505.mcf_r", ROCKET, 0.5)
                     .level2["mem_bound"]},
          "Backend {backend:.1%}, MemBound {mem:.1%} (scale 0.5)",
          lambda v: v["backend"] > 0.6 and v["mem"] > 0.5),
    Claim("ext.boom-speedup", "Extension",
          "Out-of-order execution pays off on every SPEC proxy, more on "
          "exchange2 than on bandwidth-bound xz", "Table III",
          _ext_speedup,
          "at least {min:.2f}x; exchange2 {exchange2:.2f}x vs xz "
          "{xz:.2f}x (scale 0.5)",
          lambda v: v["min"] > 1.0 and v["exchange2"] > v["xz"]),
    Claim("ext.memory-bound-both-cores", "Extension",
          "mcf and xalancbmk are Backend-dominated on both cores",
          "Table III", _ext_dominant, "dominant class: {dominant}",
          lambda v: v["dominant"] == "backend"),
    Claim("ext.size-sweep-dhrystone", "Extension",
          "Compute-bound dhrystone scales with BOOM width", "Table IV",
          _ext_dhrystone, "IPC {small:.2f} to {giga:.2f} (Small to Giga)",
          lambda v: v["monotone"] and v["giga"] > 1.5 * v["small"]),
    Claim("ext.size-sweep-memcpy", "Extension",
          "From LargeBOOM up memcpy sits at a bandwidth wall that width "
          "does not move",
          "Table IV", _ext_memcpy,
          "cycles {c_small} (Small), {c_large} (Large), {c_giga} (Giga); "
          "MemBound {m_small:.1%} to {m_giga:.1%}",
          lambda v: v["c_giga"] > 0.5 * v["c_large"]
          and v["m_giga"] > v["m_small"]),
    Claim("ext.size-sweep-qsort-badspec", "Extension",
          "Wider machines pay more for qsort's mispredicts", "Table IV",
          _ext_qsort, "BadSpec {small:.1%} to {giga:.1%} (Small to Giga)",
          lambda v: v["giga"] > v["small"]),
    Claim("ext.mrl-ablation", "Extension",
          "The model's Bad Speculation sits above the traced reference "
          "for every M_rl and grows linearly with it", "Table II",
          _ext_mrl,
          "+{step:.1%} of slots per recovery cycle; lowest delta "
          "{lowest:+.1%}",
          lambda v: v["lowest"] >= -0.02 and v["sorted"] and v["linear"]),
    Claim("ext.icache-prefetch", "Extension",
          "Disabling the I$ next-line prefetch raises misses, cycles and "
          "Frontend on perlbench", "§IV-A", _ext_icache_prefetch,
          "L1I misses {m_on} to {m_off}; Frontend {fe_on:.1%} to "
          "{fe_off:.1%}",
          lambda v: v["m_off"] > v["m_on"] and v["c_off"] > v["c_on"]
          and v["fe_off"] > v["fe_on"]),
    Claim("ext.dram-bandwidth", "Extension",
          "memcpy's cycles and Memory Bound track the DRAM block gap",
          "FASED", _ext_dram,
          "cycles {c0} to {c32}; MemBound {m0:.1%} to {m32:.1%} "
          "(gap 0 to 32)",
          lambda v: v["monotone"] and v["m32"] > v["m0"]),
    Claim("ext.data-prefetcher", "Extension",
          "A stride prefetcher helps vvadd and is inert on mcf's pointer "
          "chase", "§I", _ext_data_prefetch,
          "cycles x{vvadd_ratio:.3f} on vvadd ({vvadd_issued} issued), "
          "x{mcf_ratio:.3f} on mcf ({mcf_issued} issued)",
          lambda v: v["vvadd_ratio"] < 1 and v["vvadd_issued"] > 0
          and v["mcf_ratio"] <= 1.02
          and v["mcf_issued"] < v["vvadd_issued"]),
    Claim("ext.predictor-tage", "Extension",
          "TAGE mispredicts least on history-correlated code and wins the "
          "basket", "COBRA", _ext_tage,
          "basket cycles TAGE {tage}, gshare {gshare}, bimodal {bimodal}",
          lambda v: v["fewest"] and v["tage"] <= v["gshare"]
          and v["tage"] <= v["bimodal"]),
    Claim("ext.predictor-badspec-tracks", "Extension",
          "Bad Speculation rises with the mispredicts a predictor "
          "change causes", "COBRA", _ext_predictor_tracks,
          "{tracking} of {spread} workloads with a mispredict spread",
          lambda v: v["tracking"] == v["spread"]),
    Claim("ext.sampling-error", "Extension",
          "Multiplexed counters extrapolate dense events but miss bursty "
          "ones", "§I", _ext_sampling_error,
          "uops_retired within {dense:.1%} up to 1000 cycles; at 4000 "
          "bursty {coarse_burst:.0%} vs dense {coarse_dense:.1%}",
          lambda v: v["dense"] < 0.10
          and v["coarse_burst"] > 2 * v["coarse_dense"]),
    Claim("ext.sampling-coverage", "Extension",
          "Three rotated groups each see about a third of the run", "§I",
          _ext_sampling_coverage,
          "coverage {low:.3f} to {high:.3f} at 50 cycles",
          lambda v: v["bounded"] and abs(v["low"] - 1 / 3) <= 0.05
          and abs(v["high"] - 1 / 3) <= 0.05),
]


def render_report(results: Results) -> str:
    """The claims table as markdown: id, figure, paper, measured, verdict."""
    lines = ["| Claim | Figure | Paper | Measured | Verdict |",
             "|---|---|---|---|---|"]
    for claim in CLAIMS:
        lines.append(f"| `{claim.id}` | {claim.figure} | {claim.paper} | "
                     f"{claim.measured(results)} | "
                     f"{claim.verdict(results)} |")
    return "\n".join(lines)
