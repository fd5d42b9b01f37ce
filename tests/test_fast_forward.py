"""Quiet-cycle fast-forward changes no result.

A plain run jumps over the cycles in which nothing can change (see the
"Quiet-cycle fast-forward" section of docs/performance.md); a stepped
run, driven by a fault hook that never stalls, steps every cycle.  On
every registry workload and every Table IV config, plus the optional
D$ prefetcher and a gshare predictor, both must give the same
:class:`~repro.cores.base.CoreResult`, and a cycle watchdog must fire
at the same cycle on both paths.  A recorded run keeps the skip (a
skipped stretch goes into its :class:`~repro.cores.base.SignalStream`
as one run), so it must also give the plain result and the stepped
run's stream, cycle for cycle.
"""

from dataclasses import replace

import pytest

from repro.cores import (ALL_BOOM_CONFIGS, LARGE_BOOM, ROCKET, SMALL_BOOM,
                         SignalStream)
from repro.isa.errors import RunTimeout
from repro.pmu.harness import make_core
from repro.workloads import build_trace, workload_names

#: Every registry workload is at its smallest input here; each trace is
#: built once and shared by every config.
SCALE = 0.02
#: The registry as built in, read before any test registers its own.
WORKLOADS = workload_names()
CONFIGS = [ROCKET, *ALL_BOOM_CONFIGS,
           replace(LARGE_BOOM, dcache_prefetch=True),
           replace(SMALL_BOOM, branch_predictor="gshare")]


def config_id(config):
    if getattr(config, "dcache_prefetch", False):
        return f"{config.name}+prefetch"
    if getattr(config, "branch_predictor", "tage") != "tage":
        return f"{config.name}+{config.branch_predictor}"
    return config.name


class NeverStall:
    """A fault hook that releases every cycle: the run steps each one."""

    def stall_cycle(self, cycle):
        return False


def stepped_run(config, trace, max_cycles=None, stream=None):
    core = make_core(config)
    core.fault_hook = NeverStall()
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
