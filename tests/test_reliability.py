"""Tests for the reliability layer: faults, invariants, runner, campaign."""

import pytest

from repro.cores import LARGE_BOOM, ROCKET
from repro.cores.boom import BoomCore
from repro.cores.rocket import RocketCore
from repro.pmu import PerfHarness
from repro.reliability import (BITFLIP_COUNTER, CORRUPT_CACHE,
                               CacheIntegrityError, CounterCorruption,
                               DROP_INCREMENTS, FAULT_CLASSES,
                               FaultInjector, FaultPlan, FaultSpec,
                               ReliabilityError, ResilientRunner,
                               RunTimeout, STALL_CORE,
                               SlotConservationViolation, TRUNCATE_TRACE,
                               TmaInvariantChecker, run_campaign)
from repro.tools import cache
from repro.workloads import build_trace


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    yield tmp_path


EVENTS = ["cycles", "uops_issued", "uops_retired", "fetch_bubbles"]


def measure(**kwargs):
    harness = PerfHarness(core="boom",
                          fault_injector=kwargs.pop("fault_injector", None))
    return harness.measure("median", LARGE_BOOM, event_names=EVENTS,
                           scale=0.2, **kwargs)


# ---------------------------------------------------------------------------
# fault plan determinism
# ---------------------------------------------------------------------------

def test_fault_plan_is_deterministic():
    a = FaultPlan(seed=3, count=7, counter_event_names=EVENTS).specs()
    b = FaultPlan(seed=3, count=7, counter_event_names=EVENTS).specs()
    assert a == b


def test_fault_plan_covers_every_class():
    specs = FaultPlan(seed=0, count=5).specs()
    assert {spec.kind for spec in specs} == set(FAULT_CLASSES)


def test_fault_plan_rejects_unknown_class():
    with pytest.raises(ValueError):
        FaultPlan(classes=("gamma-ray",))


# ---------------------------------------------------------------------------
# clean runs satisfy every invariant
# ---------------------------------------------------------------------------

def test_clean_measurement_has_no_violations():
    checker = TmaInvariantChecker()
    m = measure()
    assert checker.violations(m) == []
    checker.check_measurement(m)


def test_clean_rocket_measurement_has_no_violations():
    harness = PerfHarness(core="rocket")
    m = harness.measure("vvadd", ROCKET,
                        event_names=["cycles", "instr_issued",
                                     "instr_retired", "fetch_bubbles"],
                        scale=0.2)
    TmaInvariantChecker().check_measurement(m)


def test_monotonicity_clean_and_violated():
    checker = TmaInvariantChecker()
    harness = PerfHarness(core="boom")
    small = harness.measure("vvadd", LARGE_BOOM, event_names=EVENTS,
                            scale=0.15)
    large = harness.measure("vvadd", LARGE_BOOM, event_names=EVENTS,
                            scale=0.3)
    checker.check_monotonic([small, large])
    with pytest.raises(CounterCorruption):
        checker.check_monotonic([large, small])


def test_multiplex_agreement_clean():
    checker = TmaInvariantChecker()
    harness = PerfHarness(core="boom")
    combined = checker.check_multiplex_agreement(
        harness, "vvadd", LARGE_BOOM, ["uops_retired", "fetch_bubbles"],
        scale=0.2)
    assert combined.events["uops_retired"] > 0


# ---------------------------------------------------------------------------
# each fault class is detected by its error subclass
# ---------------------------------------------------------------------------

def test_dropped_increments_detected_as_counter_corruption():
    spec = FaultSpec(kind=DROP_INCREMENTS, seed=1, event="uops_retired",
                     drop_rate=0.5)
    m = measure(fault_injector=FaultInjector(spec))
    with pytest.raises(CounterCorruption) as excinfo:
        TmaInvariantChecker().check_measurement(m)
    assert excinfo.value.invariant == "pmu-vs-core"


def test_counter_bitflip_detected_as_counter_corruption():
    spec = FaultSpec(kind=BITFLIP_COUNTER, seed=1, counter_index=3,
                     bit=40)
    m = measure(fault_injector=FaultInjector(spec))
    with pytest.raises(CounterCorruption):
        TmaInvariantChecker().check_measurement(m)


def test_truncated_trace_detected_against_reference():
    checker = TmaInvariantChecker()
    reference = measure()
    spec = FaultSpec(kind=TRUNCATE_TRACE, seed=1, keep_fraction=0.5)
    m = measure(fault_injector=FaultInjector(spec))
    checker.check_measurement(m)  # internally consistent...
    with pytest.raises(CounterCorruption) as excinfo:
        checker.check_matches_reference(m, reference)  # ...but refuted
    assert excinfo.value.invariant == "reference-divergence"


def test_truncated_trace_stays_columnar_and_matches_golden():
    from repro.isa.columnar import ColumnarTrace
    from tests.make_golden_digests import digest, load_golden, pmu_fault_doc

    trace = build_trace("qsort", scale=0.3, engine="compiled")
    spec = FaultSpec(kind=TRUNCATE_TRACE, seed=1, keep_fraction=0.45)
    cut = FaultInjector(spec).perturb_trace(trace)
    keep = int(len(trace) * 0.45)
    assert isinstance(cut, ColumnarTrace)
    assert (len(cut), cut.instret, cut.halt_reason, cut.program_name) == \
        (keep, keep, "truncated", trace.program_name)
    # The whole truncated measurement, CoreResult included, is the one
    # recorded when truncation still built an object-form trace.
    key = "pmu-fault/truncate-trace/qsort/rocket"
    assert digest(pmu_fault_doc("qsort", "rocket", "truncate-trace")) == \
        load_golden()[key]


def test_stalled_core_detected_as_run_timeout():
    spec = FaultSpec(kind=STALL_CORE, seed=1, stall_at=32)
    with pytest.raises(RunTimeout):
        measure(fault_injector=FaultInjector(spec), max_cycles=20_000)


def test_corrupted_cache_detected_and_quarantined(isolated_cache):
    reference = measure()
    key = cache.cache_key("median", 0.2, LARGE_BOOM)
    cache.store(key, reference.result)
    assert cache.verify_entry(key)
    injector = FaultInjector(FaultSpec(kind=CORRUPT_CACHE, seed=1))
    injector.corrupt_cache_file(cache.entry_path(key))
    with pytest.raises(CacheIntegrityError):
        cache.verify_entry(key)
    assert cache.load(key) is None  # lenient path: corrupt == miss
    assert cache.quarantine(key)
    assert not cache.entry_path(key).exists()


def test_slot_conservation_violation_on_inflated_event():
    m = measure()
    m.events["fetch_bubbles"] = 10 * LARGE_BOOM.commit_width * m.cycles
    m.result = None  # no cross-check: the slot laws must catch it alone
    with pytest.raises(SlotConservationViolation):
        TmaInvariantChecker().check_measurement(m)


# ---------------------------------------------------------------------------
# core watchdogs
# ---------------------------------------------------------------------------

def test_boom_run_timeout_on_tiny_budget():
    trace = build_trace("vvadd", scale=0.2)
    with pytest.raises(RunTimeout):
        BoomCore(LARGE_BOOM).run(trace, max_cycles=10)


def test_rocket_run_timeout_on_tiny_budget():
    trace = build_trace("vvadd", scale=0.2)
    with pytest.raises(RunTimeout):
        RocketCore(ROCKET).run(trace, max_cycles=10)


def test_budget_off_by_default_runs_to_completion():
    trace = build_trace("vvadd", scale=0.2)
    result = BoomCore(LARGE_BOOM).run(trace)
    assert result.instret == len(trace)


# ---------------------------------------------------------------------------
# resilient runner
# ---------------------------------------------------------------------------

def test_runner_sweep_reports_partial_results(isolated_cache):
    # A stalled core makes one pair fail every attempt; the other pair
    # (and the sweep) must still complete.
    injector = FaultInjector(FaultSpec(kind=STALL_CORE, seed=1,
                                       stall_at=32))
    harness = PerfHarness(core="boom", fault_injector=injector)
    runner = ResilientRunner(harness=harness, event_names=EVENTS,
                             scale=0.2, max_attempts=2, max_cycles=20_000)
    report = runner.run_grid(["median"], [LARGE_BOOM])
    assert len(report.failed) == 1
    outcome = report.failed[0]
    assert outcome.error_class == "RunTimeout"
    assert outcome.attempts == 2

    clean = ResilientRunner(harness=PerfHarness(core="boom"),
                            event_names=EVENTS, scale=0.2,
                            max_cycles=20_000)
    clean_report = clean.run_grid(["median"], [LARGE_BOOM])
    assert [o.ok for o in clean_report.outcomes] == [True]
    assert clean_report.outcomes[0].tma is not None
    assert "sweep:" in clean_report.summary()


def test_runner_quarantines_poisoned_entry_and_recovers(isolated_cache):
    reference = measure()
    key = cache.cache_key("median", 0.2, LARGE_BOOM)
    cache.store(key, reference.result)
    # Valid JSON, valid checksum key removed -> schema damage.
    path = cache.entry_path(key)
    path.write_text('{"workload": "median"}')
    runner = ResilientRunner(harness=PerfHarness(core="boom"),
                             event_names=EVENTS, scale=0.2)
    report = runner.run_grid(["median"], [LARGE_BOOM])
    outcome = report.outcomes[0]
    assert outcome.quarantined
    assert outcome.ok  # re-run succeeded after quarantine
    assert report.quarantined_keys == [key]
    assert cache.verify_entry(key)  # repopulated with a good entry


def test_runner_backoff_is_bounded_and_deterministic():
    sleeps = []
    injector = FaultInjector(FaultSpec(kind=STALL_CORE, seed=1,
                                       stall_at=32))
    harness = PerfHarness(core="boom", fault_injector=injector)
    runner = ResilientRunner(harness=harness, event_names=EVENTS,
                             scale=0.2, max_attempts=3,
                             max_cycles=20_000, backoff_base=0.5,
                             sleep=sleeps.append, use_cache=False)
    outcome = runner.run_one("median", LARGE_BOOM)
    assert not outcome.ok
    assert sleeps == [0.5, 1.0]


def test_runner_retargets_harness_for_rocket_configs(isolated_cache):
    runner = ResilientRunner(harness=PerfHarness(core="boom"),
                             event_names=EVENTS, scale=0.2)
    report = runner.run_grid(["vvadd"], [ROCKET])
    assert report.outcomes[0].ok


# ---------------------------------------------------------------------------
# the campaign acceptance gate
# ---------------------------------------------------------------------------

def test_campaign_seed0_catches_every_fault_class(isolated_cache):
    report = run_campaign(seed=0, faults=5, workload="median",
                          scale=0.2, max_cycles=100_000)
    assert report.clean_ok
    assert len(report.fault_classes) == len(FAULT_CLASSES)
    assert report.caught == len(report.trials) == 5
    assert report.passed
    rendered = report.render()
    assert "campaign PASSED" in rendered
    assert "5/5" in rendered


def test_reliability_error_payload_is_structured():
    try:
        raise CounterCorruption("boom", invariant="pmu-vs-core",
                                workload="w", config="c",
                                observed=1, expected=2)
    except ReliabilityError as exc:
        assert exc.invariant == "pmu-vs-core"
        assert exc.observed == 1
        assert exc.expected == 2
        assert "pmu-vs-core" in str(exc)
