"""PMU read-backs from run totals: the ``adders`` shortcut and its edges.

``PerfHarness.measure`` credits fault-free ``adders`` counters from the
core's own event totals (``CsrFile.credit``) instead of recording the
run on a ``SignalStream`` and counting it.  The identity test below is
what proves that shortcut: counting the recorded stream, on every
registry workload, reads exactly the totals.
"""

import pytest

from repro.cores import LARGE_BOOM, ROCKET, SignalStream
from repro.isa.csrs import MCOUNTINHIBIT, mhpmcounter_addr, mhpmevent_addr
from repro.isa.errors import RunTimeout
from repro.pmu import CsrFile, PerfHarness, encode_selector
from repro.pmu.events import events_for_core
from repro.pmu import harness as harness_module
from repro.pmu.harness import make_core
from repro.chaos.model import FaultInjector, FaultSpec
from repro.workloads import build_trace, workload_names

IDENTITY_SCALE = 0.05
#: The registry as built in, read before any test registers its own.
WORKLOADS = workload_names()


def observed(harness, config, trace, assignment):
    """One pass counted from a recorded stream: (CSR file, result)."""
    csr = CsrFile(core=harness.core, increment_mode=harness.increment_mode)
    harness.setup(csr, assignment)
    stream = SignalStream()
    result = make_core(config).run(trace, stream=stream)
    csr.count(stream)
    csr.drain()
    return csr, result


@pytest.mark.parametrize("config", [ROCKET, LARGE_BOOM],
                         ids=lambda config: config.name)
def test_adders_observer_reads_the_core_totals(config):
    """Every counter, mcycle and minstret equal the CoreResult totals.

    One pass programmed with every event of the core (29 on Rocket, 20
    on BOOM), on every registry workload (25).
    """
    harness = PerfHarness(core=config.core)
    (assignment,) = harness.plan(sorted(events_for_core(config.core)))
    mismatches = []
    for workload in WORKLOADS:
        trace = build_trace(workload, scale=IDENTITY_SCALE)
        csr, result = observed(harness, config, trace, assignment)
        readings = {names[0]: csr.corrected_value_for(index)
                    for index, names in assignment.slots}
        readings["mcycle"] = csr.mcycle
        readings["minstret"] = csr.minstret
        totals = {name: result.event(name) for name in readings}
        totals["mcycle"] = result.cycles
        totals["minstret"] = result.instret
        mismatches += [(workload, name, readings[name], totals[name])
                       for name in readings
                       if readings[name] != totals[name]]
    assert mismatches == []


def refuse_stream(self):
    raise AssertionError("a signal stream was recorded")


def test_adders_measure_never_steps_counters(monkeypatch):
    monkeypatch.setattr(SignalStream, "__init__", refuse_stream)
    for config in (ROCKET, LARGE_BOOM):
        measurement = PerfHarness(core=config.core).measure(
            "median", config, scale=0.2)
        result = measurement.result
        assert measurement.events == {
            name: result.event(name) for name in measurement.events}
        assert (measurement.cycles, measurement.instret) == \
            (result.cycles, result.instret)


@pytest.mark.parametrize("mode,fault", [
    ("classic", None), ("distributed", None),
    ("adders", "drop-increments"), ("adders", "bitflip-counter")])
def test_other_modes_and_injected_runs_keep_the_observer(
        monkeypatch, mode, fault):
    """Both passes count every cycle of the one recorded run."""
    counted, cores = [], []
    count = CsrFile.count

    def counting(self, stream):
        counted.append(len(stream))
        count(self, stream)

    def counting_cores(config):
        cores.append(config)
        return make_core(config)

    monkeypatch.setattr(CsrFile, "count", counting)
    monkeypatch.setattr(harness_module, "make_core", counting_cores)
    injector = FaultInjector(FaultSpec(kind=fault, seed=3)) if fault else None
    measurement = PerfHarness(
        core="rocket", increment_mode=mode, fault_injector=injector).measure(
            "median", ROCKET, event_names=["cycles"] * 30 + ["instr_retired"],
            scale=0.2)
    assert measurement.passes == 2
    assert cores == [ROCKET]
    assert counted == [measurement.result.cycles] * 2
    assert counted[0] > 0


def test_linux_mode_applies_one_boot_sequence_per_pass(monkeypatch):
    boots = []
    apply = PerfHarness.apply_boot_sequence

    def counting(self, csr, assignment):
        boots.append(apply(self, csr, assignment))
        return boots[-1]

    monkeypatch.setattr(PerfHarness, "apply_boot_sequence", counting)
    events = ["cycles"] * 30 + ["uops_retired"]
    linux = PerfHarness(core="boom", mode="linux").measure(
        "median", LARGE_BOOM, event_names=events, scale=0.2)
    bare = PerfHarness(core="boom").measure(
        "median", LARGE_BOOM, event_names=events, scale=0.2)
    assert linux.passes == 2
    # Each sequence writes one selector and one counter clear per slot,
    # plus mcounteren and mcountinhibit.
    assert boots == [2 * 29 + 2, 2 * 2 + 2]
    assert (linux.events, linux.cycles, linux.instret) == \
        (bare.events, bare.cycles, bare.instret)


def test_two_pass_plan_reads_what_the_observer_reads():
    harness = PerfHarness(core="boom")
    events = ["cycles"] * 30 + ["uops_retired"]
    measurement = harness.measure("median", LARGE_BOOM, event_names=events,
                                  scale=0.2)
    assert measurement.passes == 2
    trace = build_trace("median", scale=0.2)
    expected = {}
    for assignment in harness.plan(events):
        csr, _ = observed(harness, LARGE_BOOM, trace, assignment)
        for index, names in assignment.slots:
            expected[names[0]] = csr.corrected_value_for(index)
    assert measurement.events == expected
    assert (measurement.cycles, measurement.instret) == \
        (csr.mcycle, csr.minstret)


def test_grouped_adders_counters_read_the_summed_totals(monkeypatch):
    monkeypatch.setattr(SignalStream, "__init__", refuse_stream)
    harness = PerfHarness(core="boom")
    groups = [["icache_miss", "dcache_miss"], ["uops_retired"]]
    readings = harness.measure_grouped("median", LARGE_BOOM, groups,
                                       scale=0.2)
    result = make_core(LARGE_BOOM).run(build_trace("median", scale=0.2))
    assert readings == {
        "icache_miss+dcache_miss":
            result.event("icache_miss") + result.event("dcache_miss"),
        "uops_retired": result.event("uops_retired")}


@pytest.mark.parametrize("mode", ["adders", "classic"])
def test_small_cycle_budget_still_times_out(mode):
    harness = PerfHarness(core="rocket", increment_mode=mode)
    with pytest.raises(RunTimeout):
        harness.measure("median", ROCKET, scale=0.2, max_cycles=50)


def test_credit_honours_selectors_and_inhibit_bits():
    result = make_core(ROCKET).run(build_trace("median", scale=0.2))
    csr = CsrFile(core="rocket")
    csr.write(mhpmevent_addr(3), encode_selector(["instr_retired"], "rocket"))
    csr.write(mhpmevent_addr(4), encode_selector(["cycles"], "rocket"))
    # Everything counts but mcycle (bit 0) and mhpmcounter4 (bit 4).
    csr.write(MCOUNTINHIBIT, (1 << 0) | (1 << 4))
    csr.credit(result)
    assert csr.read(mhpmcounter_addr(3)) == result.event("instr_retired")
    assert csr.read(mhpmcounter_addr(4)) == 0
    assert csr.read(mhpmcounter_addr(5)) == 0  # never programmed
    assert csr.mcycle == 0
    assert csr.minstret == result.instret


@pytest.mark.parametrize("mode,fault", [("classic", None),
                                        ("distributed", None),
                                        ("adders", "drop-increments")])
def test_credit_refuses_readings_that_are_not_totals(mode, fault):
    injector = FaultInjector(FaultSpec(kind=fault)) if fault else None
    csr = CsrFile(core="rocket", increment_mode=mode,
                  fault_injector=injector)
    with pytest.raises(ValueError):
        csr.credit(make_core(ROCKET).run(build_trace("median", scale=0.2)))


def test_observer_steps_only_programmed_uninhibited_counters():
    csr = CsrFile(core="boom")
    selector = encode_selector(["fetch_bubbles"], "boom")
    csr.write(mhpmevent_addr(3), selector)
    csr.write(mhpmevent_addr(7), selector)
    csr.write(MCOUNTINHIBIT, 1 << 7)
    csr.count(SignalStream.from_cycles([(0, {"fetch_bubbles": 0b11})]))
    csr.write(MCOUNTINHIBIT, 0)              # start counter 7
    csr.write(mhpmevent_addr(3), 0)          # unprogram counter 3
    csr.write(mhpmevent_addr(9), selector)   # program 9 while counting
    csr.count(SignalStream.from_cycles([(1, {"fetch_bubbles": 0b1})]))
    assert [csr.read(mhpmcounter_addr(index)) for index in (3, 7, 9)] == \
        [2, 1, 1]
    assert csr.read(mhpmevent_addr(7)) == selector
