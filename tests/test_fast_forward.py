"""Quiet-cycle fast-forward changes no result.

Every run jumps over the cycles in which nothing can change (see the
"Quiet-cycle fast-forward" section of docs/performance.md).  A fault
hook that puts an empty frozen window at every next cycle freezes
nothing but bounds each skip to zero cycles, so the one loop then steps
cycle by cycle.  On every registry workload and every Table IV config,
plus the optional D$ prefetcher and a gshare predictor, a plain and a
stepped run must give the same :class:`~repro.cores.base.CoreResult`,
and a cycle watchdog must fire at exactly its budget on both.  A
recorded run keeps the skip (a skipped stretch goes into its
:class:`~repro.cores.base.SignalStream` as one record), so it must
also give the plain result and the stepped run's stream, cycle for
cycle.  The golden ``core/*@0.02`` digests pin the configs only this
oracle reaches, and a stall-core fault freezes and counts every cycle
from its start to the watchdog.
"""

from dataclasses import replace

import pytest

from repro.chaos.model import FaultInjector, FaultSpec
from repro.cores import (ALL_BOOM_CONFIGS, LARGE_BOOM, ROCKET, SMALL_BOOM,
                         CoreResult, SignalStream)
from repro.isa.errors import RunTimeout
from repro.pmu.harness import make_core
from repro.workloads import build_trace, workload_names

from tests.make_golden_digests import (SMALL_CORE_CONFIGS, SMALL_CORE_SCALE,
                                       _config, digest, load_golden,
                                       result_document)

#: Every registry workload is at its smallest input here; each trace is
#: built once and shared by every config.
SCALE = SMALL_CORE_SCALE
#: The registry as built in, read before any test registers its own.
WORKLOADS = workload_names()
CONFIGS = [ROCKET, *ALL_BOOM_CONFIGS,
           replace(LARGE_BOOM, dcache_prefetch=True),
           replace(SMALL_BOOM, branch_predictor="gshare")]
GOLDEN = load_golden()


def config_id(config):
    if getattr(config, "dcache_prefetch", False):
        return f"{config.name}+prefetch"
    if getattr(config, "branch_predictor", "tage") != "tage":
        return f"{config.name}+{config.branch_predictor}"
    return config.name


class EveryCycle:
    """A fault hook whose empty windows make the loop step each cycle."""

    def stall_window(self, cycle, end):
        return cycle + 1, cycle + 1


def stepped_run(config, trace, max_cycles=None, stream=None):
    core = make_core(config)
    core.fault_hook = EveryCycle()
    return core.run(trace, max_cycles=max_cycles, stream=stream)


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_plain_run_equals_stepped_run(config):
    """Cycles, events, lane events, extra, cache and predictor stats."""
    mismatched = []
    for workload in WORKLOADS:
        trace = build_trace(workload, scale=SCALE)
        if make_core(config).run(trace) != stepped_run(config, trace):
            mismatched.append(workload)
    assert mismatched == []


@pytest.mark.parametrize("config", [ROCKET, *ALL_BOOM_CONFIGS],
                         ids=config_id)
def test_recorded_run_equals_plain_result_and_stepped_stream(config):
    """Run-length records of skipped stretches expand to stepped cycles."""
    mismatched = []
    for workload in WORKLOADS:
        trace = build_trace(workload, scale=SCALE)
        recorded, stepped = SignalStream(), SignalStream()
        result = make_core(config).run(trace, stream=recorded)
        stepped_run(config, trace, stream=stepped)
        if result != make_core(config).run(trace) \
                or list(recorded.runs()) != list(stepped.runs()):
            mismatched.append(workload)
    assert mismatched == []


@pytest.mark.parametrize("config", SMALL_CORE_CONFIGS)
def test_plain_run_matches_small_scale_golden(config):
    mismatched = []
    for workload in WORKLOADS:
        result = make_core(_config(config)).run(build_trace(workload,
                                                            scale=SCALE))
        if digest(result_document(result)) != \
                GOLDEN[f"core/{workload}/{config}@{SCALE}"]:
            mismatched.append(workload)
    assert mismatched == []


def longest_quiet_stretch(config, trace):
    """``(first, last)`` cycle of the longest run with no issue/retire.

    Read from a stepped run, whose stream has a record per cycle.
    """
    stream = SignalStream()
    stepped_run(config, trace, stream=stream)
    busy = [cycle for cycle, signals in stream.cycles()
            if signals.keys() & {"uops_issued", "uops_retired",
                                 "instr_issued"}]
    gaps = [(b - a, a + 1, b - 1) for a, b in zip(busy, busy[1:])]
    _, first, last = max(gaps)
    return first, last


@pytest.mark.parametrize("config", [ROCKET, LARGE_BOOM], ids=config_id)
def test_watchdog_fires_at_the_same_cycle_inside_a_quiet_stretch(config):
    trace = build_trace("505.mcf_r", scale=SCALE)
    first, last = longest_quiet_stretch(config, trace)
    assert last - first > 50  # a DRAM miss, not a load-use bubble
    for budget in (first + 1, (first + last) // 2, last):
        with pytest.raises(RunTimeout) as plain:
            make_core(config).run(trace, max_cycles=budget)
        with pytest.raises(RunTimeout) as stepped:
            stepped_run(config, trace, max_cycles=budget)
        assert plain.value.observed == stepped.value.observed == budget
        assert str(plain.value) == str(stepped.value)


@pytest.mark.parametrize("config", [ROCKET, LARGE_BOOM], ids=config_id)
def test_stall_core_freezes_every_cycle_up_to_the_watchdog(config):
    """One window from ``stall_at`` to the budget, counted cycle by cycle."""
    injector = FaultInjector(FaultSpec(kind="stall-core", stall_at=150))
    core = make_core(config)
    core.fault_hook = injector
    stream = SignalStream()
    with pytest.raises(RunTimeout) as info:
        core.run(build_trace("vvadd", scale=SCALE), max_cycles=600,
                 stream=stream)
    assert info.value.observed == 600
    assert injector.injections == 600 - 150
    assert len(stream) == 150


@pytest.mark.parametrize("config", [ROCKET, LARGE_BOOM], ids=config_id)
def test_empty_trace_runs_to_a_zero_cycle_result(config):
    """A loop that ends before its first cycle still returns its result."""
    trace = build_trace("vvadd", scale=SCALE).slice(0, 0)
    for max_cycles in (None, 100):
        result = make_core(config).run(trace, max_cycles=max_cycles)
        assert isinstance(result, CoreResult)
        assert (result.cycles, result.instret, result.events) == (0, 0, {})
