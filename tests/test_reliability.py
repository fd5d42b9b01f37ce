"""Tests for the reliability layer: model faults, invariants, runner."""

from dataclasses import replace

import pytest

from repro.chaos import injector
from repro.chaos.campaign import (CAMPAIGN_EVENTS, CampaignReport,
                                  run_model_phase)
from repro.chaos.model import (BITFLIP_COUNTER, DROP_INCREMENTS,
                               MODEL_FAULTS, STALL_CORE, TRUNCATE_TRACE,
                               FaultInjector, FaultSpec, draw_fault)
from repro.chaos.plan import ChaosPlan
from repro.cores import LARGE_BOOM, ROCKET
from repro.cores.boom import BoomCore
from repro.cores.rocket import RocketCore
from repro.pmu import PerfHarness
from repro.reliability import (CacheIntegrityError, CounterCorruption,
                               JobValidationError, MulticoreJob,
                               ReliabilityError,
                               ResilientRunner, RetryPolicy, RunTimeout,
                               SlotConservationViolation, TMAJob,
                               TmaInvariantChecker)
from repro.reliability import runner as runner_module
from repro.reliability.request import MAX_SCALE
from repro.reliability.runner import lookup
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
# model-fault planner: pure hash draws
# ---------------------------------------------------------------------------

PAIRS = [(w, c) for w in ("median", "qsort", "towers")
         for c in ("rocket", "large-boom")]


def _events(config):
    return CAMPAIGN_EVENTS["rocket" if config == "rocket" else "boom"]


def test_fault_plan_is_deterministic():
    a = [draw_fault(3, kind, w, c, _events(c))
         for kind in MODEL_FAULTS for w, c in PAIRS]
    b = [draw_fault(3, kind, w, c, _events(c))
         for kind in MODEL_FAULTS for w, c in PAIRS]
    assert a == b
    stall = draw_fault(3, STALL_CORE, "median", "rocket", _events("rocket"))
    assert stall in a
    assert draw_fault(4, STALL_CORE, "median", "rocket",
                      _events("rocket")) != stall


def test_fault_plan_covers_every_class():
    for seed in range(20):
        for kind in MODEL_FAULTS:
            for workload, config in PAIRS:
                events = _events(config)
                spec = draw_fault(seed, kind, workload, config, events)
                assert spec.kind == kind
                assert spec.event in events
                assert 0.3 <= spec.drop_rate < 0.7
                # The flipped counter is one the trial programs.
                assert 3 <= spec.counter_index < 3 + len(events)
                assert 33 <= spec.bit < 48
                assert 0.3 <= spec.keep_fraction < 0.8
                assert 16 <= spec.stall_at < 256


def test_fault_plan_rejects_unknown_class():
    with pytest.raises(ValueError):
        draw_fault(0, "gamma-ray", "median", "rocket", _events("rocket"))


def test_fault_plan_draw_ignores_other_pairs_and_classes():
    """A pair's fault is the same however many trials are planned."""
    def plan(classes, pairs):
        return {(kind, w, c): draw_fault(7, kind, w, c, _events(c))
                for kind in classes for w, c in pairs}

    alone = plan([BITFLIP_COUNTER], [("median", "large-boom")])
    everything = plan(MODEL_FAULTS, PAIRS)
    reordered = plan(MODEL_FAULTS[::-1], PAIRS[::-1])
    key = (BITFLIP_COUNTER, "median", "large-boom")
    assert alone[key] == everything[key] == reordered[key]
    assert everything == reordered


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

    trace = build_trace("qsort", scale=0.3)
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
    chaos_key = cache.fault_key(
        "result", cache.entry_identity("median", 0.2, LARGE_BOOM))
    for flavor in ("truncate", "bitflip"):
        # The first seed whose disk seam draws this corrupting flavor.
        plan = next(plan for plan in (ChaosPlan(seed=seed,
                                                disk_fault_rate=1.0)
                                      for seed in range(100))
                    if plan.decide("disk_fault", chaos_key) == flavor)
        with injector.active(plan):
            assert cache.store(key, reference.result)
        assert cache.entry_path(key).exists()
        hit, damage = cache.load_or_quarantine(key)
        assert hit is None
        assert isinstance(damage, CacheIntegrityError)
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

MEDIAN = TMAJob(workload="median", scale=0.2, events=tuple(EVENTS),
                max_cycles=20_000)


def test_runner_sweep_reports_partial_results(isolated_cache):
    # A stalled core makes the job fail every attempt; the runner
    # reports the failure instead of raising it.  The watchdog's
    # timeout would only repeat, so it is not retried.
    fault = FaultInjector(FaultSpec(kind=STALL_CORE, seed=1, stall_at=32))
    runner = ResilientRunner(retry_policy=RetryPolicy(max_attempts=2),
                             fault_injector=fault)
    outcome = runner.run_one(MEDIAN)
    assert outcome.status == "failed"
    assert outcome.error_class == "RunTimeout"
    assert outcome.attempts == 1
    assert outcome.measurement is None

    clean_outcome = ResilientRunner().run_one(MEDIAN)
    assert clean_outcome.ok
    assert clean_outcome.attempts == 1
    assert clean_outcome.tma is not None
    assert clean_outcome.result is clean_outcome.measurement.result


def test_runner_quarantines_poisoned_entry_and_recovers(isolated_cache):
    reference = measure()
    job = TMAJob(workload="median", scale=0.2)
    key = job.cache_key()
    assert key == cache.cache_key("median", 0.2, LARGE_BOOM)
    cache.store(key, reference.result)
    # Valid JSON without the sealed envelope -> refused as unreadable.
    path = cache.entry_path(key)
    path.write_text('{"workload": "median"}')
    outcome = ResilientRunner().run_one(job)
    assert outcome.quarantined
    assert outcome.ok  # re-run succeeded after quarantine
    assert outcome.attempts == 1
    assert outcome.error_class == "CacheIntegrityError"  # names the damage
    assert cache.load_or_quarantine(key) == (outcome.result, None)
    # The repaired entry is now served without a run.
    served = ResilientRunner().run_one(job)
    assert served.ok and served.attempts == 0 and not served.quarantined
    assert served.result == outcome.result


def test_runner_backoff_is_bounded_and_deterministic(monkeypatch):
    # A refuted measurement is retried (a watchdog timeout would not be).
    def refuse(self, measurement):
        raise CounterCorruption("refuted", invariant="forced")

    monkeypatch.setattr(TmaInvariantChecker, "check_measurement", refuse)
    sleeps = []
    runner = ResilientRunner(
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5),
        sleep=sleeps.append)
    outcome = runner.run_one(replace(MEDIAN, use_cache=False))
    assert not outcome.ok and outcome.attempts == 3
    assert sleeps == [0.5, 1.0]


def test_runner_retargets_harness_for_rocket_configs(isolated_cache):
    # The harness is built from the job's own core.
    outcome = ResilientRunner().run_one(
        TMAJob(workload="vvadd", config="rocket", scale=0.2,
               increment_mode="distributed"))
    assert outcome.ok
    assert outcome.measurement.core == "rocket"


# ---------------------------------------------------------------------------
# the one seam: every request kind gets watchdog, retry and invariants
# ---------------------------------------------------------------------------

WINDOWED = TMAJob(workload="median", config="rocket", scale=0.2, windows=2)
SCENARIO = MulticoreJob(scenario="noisy-neighbor", scale=0.1)
KINDS = {"point": TMAJob(workload="median", config="rocket", scale=0.2),
         "windowed": WINDOWED,
         "sampled": replace(WINDOWED, sampled=True),
         "multicore": SCENARIO}


@pytest.mark.parametrize("kind", ["windowed", "sampled"])
def test_seam_watchdog_bounds_every_window(kind):
    job = replace(KINDS[kind], max_cycles=50)
    outcome = ResilientRunner().run_one(job)
    assert outcome.status == "failed"
    assert outcome.error_class == "RunTimeout"
    assert outcome.attempts == 1


def test_seam_watchdog_bounds_every_scenario_core(monkeypatch):
    monkeypatch.setattr(runner_module, "DEFAULT_MAX_CYCLES", 50)
    outcome = ResilientRunner().run_one(SCENARIO)
    assert outcome.status == "failed"
    assert "exceeded" in outcome.error
    assert outcome.attempts == 1


def test_seam_watchdog_failure_of_a_point_is_not_retried():
    job = replace(KINDS["point"], max_cycles=50)
    outcome = ResilientRunner().run_one(job)
    assert (outcome.status, outcome.error_class, outcome.attempts) == \
        ("failed", "RunTimeout", 1)


def test_job_with_an_event_its_core_lacks_is_rejected():
    job = TMAJob(workload="median", config="rocket", scale=0.2,
                 events=("cycles", "uops_issued"))
    with pytest.raises(JobValidationError, match="uops_issued"):
        job.validate()
    with pytest.raises(JobValidationError, match="rocket core"):
        TMAJob.from_payload({"workload": "median", "config": "rocket",
                             "events": ["uops_issued"]})
    replace(job, config="large-boom").validate()
    # Run anyway, it fails once, before any simulation.
    outcome = ResilientRunner().run_one(job)
    assert (outcome.status, outcome.error_class, outcome.attempts) == \
        ("failed", "JobValidationError", 1)


def test_scenario_over_its_instruction_budget_fails_once(isolated_cache,
                                                         monkeypatch):
    # A kernel that never halts runs into the functional executor's
    # instruction budget at any scale; its scenario fails once.
    from repro.multicore import scenarios
    from repro.multicore.scenarios import CoreSlot, Scenario
    from repro.workloads import Workload, registry, workload_names

    workload_names()  # load the registry before copying it
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    registry.register(Workload(
        name="spin", category="micro",
        source_builder=lambda scale: ".text\n_start:\n    j _start\n"))
    monkeypatch.setitem(scenarios.SCENARIOS, "spinner", Scenario(
        name="spinner", description="a core that never halts",
        slots=(CoreSlot("median", "rocket"), CoreSlot("spin", "rocket"))))
    job = MulticoreJob(scenario="spinner", scale=0.1)
    job.validate()
    outcome = ResilientRunner().run_one(job)
    assert (outcome.status, outcome.error_class, outcome.attempts) == \
        ("failed", "ExecutionError", 1)
    assert "instruction budget exceeded" in outcome.error


def test_scale_cap_rejects_what_cannot_run_before_any_trace():
    with pytest.raises(JobValidationError, match="scale must be in"):
        MulticoreJob(scenario="latency-victim", scale=10.0).validate()
    with pytest.raises(JobValidationError, match="scale must be in"):
        TMAJob(workload="towers", config="rocket", scale=1.8).validate()
    MulticoreJob(scenario="latency-victim", scale=MAX_SCALE).validate()
    TMAJob(workload="towers", config="rocket", scale=MAX_SCALE).validate()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_seam_retries_a_transient_failure(kind, monkeypatch):
    # The first check of each run raises once; the retry succeeds.
    calls = []
    real = TmaInvariantChecker.check_core_result

    def flaky(self, result):
        calls.append(result)
        if len(calls) == 1:
            raise CounterCorruption("transient", invariant="transient")
        real(self, result)

    monkeypatch.setattr(TmaInvariantChecker, "check_core_result", flaky)
    monkeypatch.setattr(TmaInvariantChecker, "check_measurement",
                        lambda self, m: flaky(self, m.result))
    outcome = ResilientRunner().run_one(KINDS[kind])
    assert outcome.ok
    assert outcome.attempts == 2


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_seam_checks_invariants_of_every_kind(kind, monkeypatch):
    checked = []

    def refuse(self, result):
        checked.append(result.workload)
        raise SlotConservationViolation("forced", invariant="forced")

    monkeypatch.setattr(TmaInvariantChecker, "check_core_result", refuse)
    monkeypatch.setattr(TmaInvariantChecker, "check_measurement",
                        lambda self, m: refuse(self, m))
    outcome = ResilientRunner().run_one(KINDS[kind])
    assert outcome.status == "failed"
    assert outcome.error_class == "SlotConservationViolation"
    assert outcome.attempts == 3 and checked
    # A refuted result is never stored, so nothing is served later.
    monkeypatch.undo()
    assert lookup(KINDS[kind]) == (None, None)


def test_seam_deadline_is_checked_before_each_attempt():
    outcome = ResilientRunner().run_one(SCENARIO, deadline=0.0)
    assert outcome.status == "failed"
    assert outcome.error_class == "DeadlineExceeded"
    assert outcome.attempts == 0


def test_seam_quarantines_and_labels_damaged_scenario_entries():
    first = ResilientRunner().run_one(SCENARIO)
    assert first.ok and first.attempts == 1
    cache.entry_path(SCENARIO.cache_key()).write_text("{not json")
    again = ResilientRunner().run_one(SCENARIO)
    assert again.ok and again.attempts == 1
    assert again.quarantined
    assert again.error_class == "CacheIntegrityError"
    assert again.payload["cores"] == first.payload["cores"]
    served = ResilientRunner().run_one(SCENARIO)
    assert served.attempts == 0 and served.payload == again.payload


# ---------------------------------------------------------------------------
# the campaign's model phase: every model fault refuted
# ---------------------------------------------------------------------------

def test_campaign_seed0_catches_every_fault_class(isolated_cache):
    report = CampaignReport(seed=0)
    run_model_phase(report, 0, str(isolated_cache), "median",
                    ("rocket", "large-boom"), 0.2)
    model = report.model
    assert report.violations == []
    assert model["clean"] == {"rocket": True, "large-boom": True}
    expected = {DROP_INCREMENTS: "CounterCorruption",
                BITFLIP_COUNTER: "CounterCorruption",
                TRUNCATE_TRACE: "CounterCorruption",
                STALL_CORE: "RunTimeout"}
    assert [(t["config"], t["kind"]) for t in model["trials"]] == [
        (config, kind) for config in ("rocket", "large-boom")
        for kind in MODEL_FAULTS]
    for trial in model["trials"]:
        assert trial["caught"] and trial["injections"] > 0
        assert trial["error"] == expected[trial["kind"]]
    assert model["caught"] == 8


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
