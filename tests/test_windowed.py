"""Windowed/sampled engine: plan, stitch gate, labels, integrations.

``repro.cores.windowed`` shards a trace into K instruction windows,
simulates them independently with run-and-subtract warmup, and stitches
per-window results into a whole-run ``CoreResult``.  The oracle is a
plain ``run_core`` of the same (workload, config, scale): these tests
pin the equivalence gate across the whole workload registry and every
core config, the per-event-class gate semantics (bit-identical,
retire-edge slack, calibrated tolerance), sampled-mode labeling,
error bars and error bound, TMA invariants on every stitched result,
the cache-key plan folding, the labeled pool fallback, and
the windowed paths through ``run_core``, the batch engine, and the
service job layer.
"""

import copy
import dataclasses

import pytest

from repro.core.tma import TOP_LEVEL, compute_tma
from repro.cores import LARGE_BOOM, MEDIUM_BOOM, ROCKET, SMALL_BOOM
from repro.cores.batch import parse_grid, run_batch
from repro.cores.windowed import (ABS_PER_WINDOW, DEFAULT_WARMUP,
                                  EXACT_EVENTS, GATE_WARMUP, REL_TOL,
                                  RETIRE_EDGE_SLACK, RETIRE_EVENTS,
                                  assert_stitch_equivalent, normalized_warmup,
                                  plan_windows, run_windowed,
                                  run_windowed_points)
from repro.reliability import ResilientRunner, TmaInvariantChecker
from repro.service.job import TMAJob, JobValidationError, outcome_payload
from repro.service.store import ResultStore
from repro.tools import cache as result_cache
from repro.tools import pool
from repro.tools.tma_tool import run_core
from repro.workloads import build_trace, workload_names

SCALE = 0.3
CONFIGS = (ROCKET, SMALL_BOOM, MEDIUM_BOOM, LARGE_BOOM)
CHECKER = TmaInvariantChecker()


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    yield tmp_path


def result_digest(result):
    return (
        result.events,
        result.lane_events,
        result.cycles,
        result.instret,
        dataclasses.astuple(result.l1i_stats),
        dataclasses.astuple(result.l1d_stats),
        dataclasses.astuple(result.l2_stats),
        dataclasses.astuple(result.predictor_stats),
        result.extra,
    )


# ----------------------------------------------------------------------
# window planning


def test_exact_plan_tiles_the_trace():
    plan = plan_windows(10_001, 4)
    assert plan.windows == 4
    assert plan.warmup == DEFAULT_WARMUP
    assert not plan.sampled
    assert plan.spans[0][0] == 0
    assert plan.spans[-1][1] == 10_001
    for (_, stop), (start, _) in zip(plan.spans, plan.spans[1:]):
        assert stop == start  # contiguous, no gap or overlap
    assert plan.measured_instructions == 10_001
    assert plan.coverage == 1.0


def test_single_window_needs_no_warmup():
    plan = plan_windows(5_000, 1)
    assert plan.warmup == 0
    assert plan.spans == ((0, 5_000),)


def test_sampled_plan_covers_a_fraction():
    plan = plan_windows(100_000, 4, sampled=True)
    assert plan.sampled
    assert len(plan.spans) == 4
    period = 100_000 // 4
    for i, (start, stop) in enumerate(plan.spans):
        assert start == i * period
        assert stop - start == max(256, period // 10)
    assert 0 < plan.coverage < 0.5


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_windows(0, 4)
    with pytest.raises(ValueError):
        plan_windows(100, 0)
    with pytest.raises(ValueError):
        plan_windows(100, 2, warmup=-1)
    # More windows than instructions degrades to one per instruction.
    assert plan_windows(3, 8).windows == 3


def test_normalized_warmup_is_trace_independent():
    assert normalized_warmup(1, None, False) == 0
    assert normalized_warmup(2, None, False) == DEFAULT_WARMUP
    assert normalized_warmup(1, None, True) == DEFAULT_WARMUP
    assert normalized_warmup(4, 123, False) == 123
    assert normalized_warmup(4, 0, True) == 0


# ----------------------------------------------------------------------
# exact-mode equivalence against the run_core oracle


@pytest.mark.parametrize("workload", workload_names())
def test_stitch_matches_oracle_across_registry(workload):
    """Acceptance: every registry workload x every config, gated."""
    for config in CONFIGS:
        oracle = run_core(workload, config, scale=SCALE, use_cache=False)
        stitched = run_windowed(workload, config, windows=4, scale=SCALE,
                                warmup=GATE_WARMUP, use_cache=False,
                                workers=1)
        assert_stitch_equivalent(stitched, oracle, 4)
        CHECKER.check_core_result(oracle)
        CHECKER.check_core_result(stitched)
        assert stitched.sampled is False
        assert stitched.windowed["windows"] <= 4
        assert stitched.windowed["warmup"] == GATE_WARMUP
        assert stitched.windowed["sampled"] is False
        # Warmup instructions are replayed but never counted.
        assert abs(stitched.instret - oracle.instret) <= RETIRE_EDGE_SLACK


class _BrokenPool:
    """Executor factory whose pool dies on the first submission."""

    def __init__(self, workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        raise RuntimeError("pool is gone")


def test_pool_fallback_is_labeled_and_exact(monkeypatch):
    inline = run_windowed("towers", ROCKET, windows=3, scale=SCALE,
                          use_cache=False, workers=1)
    assert "fallback_reason" not in inline.windowed
    monkeypatch.setitem(pool.EXECUTOR_FACTORIES, "process", _BrokenPool)
    fallen = run_windowed("towers", ROCKET, windows=3, scale=SCALE,
                          use_cache=False, workers=2)
    assert result_digest(fallen) == result_digest(inline)
    assert fallen.windowed["fallback_reason"] == \
        "RuntimeError: pool is gone"
    points = parse_grid("rocket,small-boom")
    fallen_points, report = run_windowed_points(
        "towers", points, windows=2, scale=SCALE, workers=2)
    assert report.mode == "inline"
    for point in points:
        assert fallen_points[point.key].windowed["fallback_reason"] == \
            "RuntimeError: pool is gone"
    # The batch engine's windowed route labels the same fallback.
    batch = run_batch("towers", points, scale=SCALE, windows=2,
                      use_cache=False, workers=2)
    assert batch.stats.mode == "inline"
    assert batch.stats.fallback_reason == "RuntimeError: pool is gone"
    for point in points:
        assert result_digest(batch.result_for(point.key)) == \
            result_digest(fallen_points[point.key])


def test_gate_event_classes():
    oracle = run_core("towers", ROCKET, scale=SCALE, use_cache=False)
    assert_stitch_equivalent(copy.deepcopy(oracle), oracle, 4)

    exact_names = sorted(EXACT_EVENTS & oracle.events.keys())
    assert exact_names, "oracle must exercise at least one exact event"
    off = copy.deepcopy(oracle)
    off.events[exact_names[0]] += 1
    with pytest.raises(AssertionError, match="exact-class"):
        assert_stitch_equivalent(off, oracle, 4)

    # Retire counters tolerate the documented end-of-stream phantom
    # slack, nothing more.
    near = copy.deepcopy(oracle)
    near.instret -= RETIRE_EDGE_SLACK
    assert_stitch_equivalent(near, oracle, 4)
    past = copy.deepcopy(oracle)
    past.instret -= RETIRE_EDGE_SLACK + 1
    with pytest.raises(AssertionError, match="instret"):
        assert_stitch_equivalent(past, oracle, 4)
    for name in sorted(RETIRE_EVENTS & oracle.events.keys()):
        past = copy.deepcopy(oracle)
        past.events[name] += RETIRE_EDGE_SLACK + 1
        with pytest.raises(AssertionError, match=name):
            assert_stitch_equivalent(past, oracle, 4)

    # Cycles sit in the calibrated tolerance class: exactly at the
    # bound passes, past it fails.
    bound = int(max(REL_TOL * oracle.cycles, ABS_PER_WINDOW * 4))
    inside = copy.deepcopy(oracle)
    inside.cycles += bound
    assert_stitch_equivalent(inside, oracle, 4)
    outside = copy.deepcopy(oracle)
    outside.cycles += bound + 1
    with pytest.raises(AssertionError, match="cycles"):
        assert_stitch_equivalent(outside, oracle, 4)


# ----------------------------------------------------------------------
# sampled mode


def test_sampled_is_labeled_and_extrapolated():
    trace_len = len(build_trace("531.deepsjeng_r", scale=SCALE))
    oracle = run_core("531.deepsjeng_r", ROCKET, scale=SCALE,
                      use_cache=False)
    sampled = run_windowed("531.deepsjeng_r", ROCKET, windows=4, scale=SCALE,
                           sampled=True, use_cache=False, workers=1)
    assert sampled.sampled is True
    assert sampled.windowed["sampled"] is True
    assert sampled.windowed["coverage"] < 0.5
    # instret is pinned to the architectural trace length, never
    # extrapolated; cycles are estimates in the oracle's ballpark.
    assert sampled.instret == trace_len
    assert 0.5 * oracle.cycles < sampled.cycles < 2.0 * oracle.cycles
    bars = sampled.windowed["error_bars"]
    assert set(bars) == set(TOP_LEVEL)
    for slot in TOP_LEVEL:
        bar = bars[slot]
        assert set(bar) == {"mean", "stderr", "low", "high"}
        assert bar["low"] <= bar["mean"] <= bar["high"]


#: Worst TMA level-1 slot error a sampled run may show against the
#: ``run_core`` oracle.  Small phase-heterogeneous traces are
#: sampling's worst case (mm's init loops vs. its FP kernel score ~0.11
#: on the retiring slot, deterministically); a broken extrapolation
#: (wrong coverage factor, dropped spans) lands far past the bound.
SAMPLED_ERROR_BOUND = 0.15


@pytest.mark.parametrize("workload", ["mm", "towers"])
def test_sampled_error_within_bound(workload):
    oracle = run_core(workload, ROCKET, scale=SCALE, use_cache=False)
    sampled = run_windowed(workload, ROCKET, windows=4, scale=SCALE,
                           sampled=True, use_cache=False, workers=1)
    CHECKER.check_core_result(oracle)
    CHECKER.check_core_result(sampled)
    assert sampled.sampled is True
    assert set(sampled.windowed["error_bars"]) == set(TOP_LEVEL)
    oracle_tma = compute_tma(oracle)
    sampled_tma = compute_tma(sampled)
    worst = max(abs(sampled_tma.fraction(slot) - oracle_tma.fraction(slot))
                for slot in TOP_LEVEL)
    assert worst <= SAMPLED_ERROR_BOUND


def test_exact_mode_is_never_labeled_sampled():
    exact = run_windowed("towers", ROCKET, windows=2, scale=SCALE,
                         use_cache=False, workers=1)
    assert exact.sampled is False
    assert "error_bars" not in exact.windowed


# ----------------------------------------------------------------------
# caching


def test_windowed_cache_keys_never_collide():
    plain = result_cache.cache_key("towers", SCALE, ROCKET)
    keys = {
        plain,
        result_cache.windowed_cache_key("towers", SCALE, ROCKET, 2,
                                        DEFAULT_WARMUP, False),
        result_cache.windowed_cache_key("towers", SCALE, ROCKET, 4,
                                        DEFAULT_WARMUP, False),
        result_cache.windowed_cache_key("towers", SCALE, ROCKET, 4, 512,
                                        False),
        result_cache.windowed_cache_key("towers", SCALE, ROCKET, 4,
                                        DEFAULT_WARMUP, True),
    }
    assert len(keys) == 5


def test_windowed_results_round_trip_the_cache():
    fresh = run_windowed("towers", ROCKET, windows=2, scale=SCALE,
                         sampled=True, workers=1)
    cached = run_windowed("towers", ROCKET, windows=2, scale=SCALE,
                          sampled=True, workers=1)
    assert result_digest(cached) == result_digest(fresh)
    # The sampled label and metadata survive serialization.
    assert cached.sampled is True
    assert cached.windowed["error_bars"] == fresh.windowed["error_bars"]
    # A plain run of the same workload/config is a different entry.
    plain = run_core("towers", ROCKET, scale=SCALE)
    assert plain.windowed is None and plain.sampled is False


# ----------------------------------------------------------------------
# run_core integration and the huge tier


def test_run_core_windows_delegates():
    direct = run_windowed("towers", ROCKET, windows=2, scale=SCALE,
                          use_cache=False, workers=1)
    via_run_core = run_core("towers", ROCKET, scale=SCALE, windows=2,
                            use_cache=False, workers=1)
    assert result_digest(via_run_core) == result_digest(direct)


def test_huge_tier_only_runs_windowed():
    assert "huge-walk" in workload_names("huge")
    assert "huge-walk" not in workload_names()
    with pytest.raises(ValueError, match="huge"):
        run_core("huge-walk", ROCKET, scale=0.1, use_cache=False)
    result = run_core("huge-walk", ROCKET, scale=0.1, windows=2,
                      use_cache=False, workers=1)
    assert result.instret == len(build_trace("huge-walk", scale=0.1))


def test_sampled_requires_windows():
    with pytest.raises(ValueError, match="windows"):
        run_core("towers", ROCKET, scale=SCALE, sampled=True,
                 use_cache=False)


def test_progress_ticks_go_to_stderr(capsys):
    run_windowed("towers", ROCKET, windows=2, scale=SCALE, use_cache=False,
                 workers=1, progress=True)
    err = capsys.readouterr().err
    assert "[windowed] window 1/2" in err
    assert "[windowed] window 2/2" in err


# ----------------------------------------------------------------------
# batch engine: windows x grid points


GRID = parse_grid("rocket,small-boom")


def test_batch_windowed_matches_run_windowed():
    batch = run_batch("towers", GRID, scale=SCALE, windows=3,
                      use_cache=False, workers=1)
    assert batch.stats.trace_fetches == 1
    for point in GRID:
        oracle = run_windowed("towers", point.config, windows=3, scale=SCALE,
                              use_cache=False, workers=1)
        assert result_digest(batch.result_for(point.key)) == \
            result_digest(oracle), point.key


def test_batch_windowed_cache_hits_skip_simulation():
    first = run_batch("towers", GRID, scale=SCALE, windows=3, workers=1)
    assert first.stats.executed == len(GRID)
    again = run_batch("towers", GRID, scale=SCALE, windows=3, workers=1)
    assert again.stats.cache_hits == len(GRID)
    assert again.stats.executed == 0
    for point in GRID:
        assert result_digest(again.result_for(point.key)) == \
            result_digest(first.result_for(point.key))
    # A different plan never reuses those entries.
    other = run_batch("towers", GRID, scale=SCALE, windows=4, workers=1)
    assert other.stats.cache_hits == 0


def test_run_windowed_points_fans_out_pairs():
    seen = []
    results, report = run_windowed_points(
        "towers", GRID, windows=3, scale=SCALE, workers=1,
        note=lambda point, result: seen.append(point.key))
    assert report.mode == "inline"
    assert report.fallback_reason is None
    assert sorted(seen) == sorted(p.key for p in GRID)
    for point in GRID:
        oracle = run_windowed("towers", point.config, windows=3, scale=SCALE,
                              use_cache=False, workers=1)
        assert result_digest(results[point.key]) == result_digest(oracle)


# ----------------------------------------------------------------------
# service job layer


def test_tma_job_window_validation():
    TMAJob(workload="towers", windows=2, warmup=64, sampled=True).validate()
    with pytest.raises(JobValidationError):
        TMAJob(workload="towers", windows=0).validate()
    with pytest.raises(JobValidationError):
        TMAJob(workload="towers", warmup=64).validate()
    with pytest.raises(JobValidationError):
        TMAJob(workload="towers", sampled=True).validate()
    with pytest.raises(JobValidationError):
        TMAJob(workload="towers", windows=2, warmup=-1).validate()
    with pytest.raises(JobValidationError, match="huge"):
        TMAJob(workload="huge-walk").validate()
    TMAJob(workload="huge-walk", windows=4).validate()
    # Windowed runs read no PMU: every PMU option conflicts by name.
    for conflict, option in (("increment_mode", {"increment_mode":
                                                 "distributed"}),
                             ("increment_mode", {"increment_mode":
                                                 "classic"}),
                             ("mode", {"mode": "linux"}),
                             ("events", {"events": ("cycles",)})):
        with pytest.raises(JobValidationError,
                           match=f"windows conflicts with {conflict}"):
            TMAJob(workload="towers", windows=2, **option).validate()


def test_tma_job_payload_round_trip():
    job = TMAJob(workload="towers", config="rocket", scale=SCALE,
                 windows=2, warmup=64, sampled=True)
    restored = TMAJob.from_payload(job.to_payload())
    assert restored == job
    assert restored.job_key() == job.job_key()


def test_window_params_fold_into_job_and_cache_keys():
    base = TMAJob(workload="towers", config="rocket", scale=SCALE)
    windowed = dataclasses.replace(base, windows=2)
    sampled = dataclasses.replace(base, windows=2, sampled=True)
    assert len({base.job_key(), windowed.job_key(), sampled.job_key()}) == 3
    assert windowed.cache_key() == result_cache.windowed_cache_key(
        "towers", SCALE, ROCKET, 2, DEFAULT_WARMUP, False)
    assert windowed.cache_key() != base.cache_key()


@pytest.mark.parametrize("sampled", [False, True])
def test_service_executes_windowed_jobs(sampled):
    job = TMAJob(workload="towers", config="rocket", scale=SCALE,
                 windows=2, sampled=sampled, use_cache=False)
    outcome = ResilientRunner().run_one(job)
    assert outcome.status == "ok"
    assert outcome.result.sampled is sampled
    assert outcome.result.windowed["windows"] == 2
    assert ("error_bars" in outcome.result.windowed) is sampled
    summary = outcome_payload(outcome)
    assert summary["sampled"] is sampled
    assert summary["windowed"] == outcome.result.windowed
    assert summary["cycles"] == outcome.result.cycles
    assert set(summary["tma"]["level1"]) == set(TOP_LEVEL)


@pytest.mark.parametrize("sampled", [False, True])
def test_served_windowed_repeat_equals_executed_payload(sampled):
    # A repeat served from the store must keep the sampled label and
    # the window metadata: an extrapolation never reads as exact.
    job = TMAJob(workload="median", config="rocket", scale=0.2,
                 windows=2, sampled=sampled)
    executed = outcome_payload(ResilientRunner().run_one(job))
    served = ResultStore().lookup(job)
    assert served is not None and served["from_cache"] is True
    assert served["sampled"] is sampled
    provenance = ("attempts", "from_cache")
    assert ({k: v for k, v in served.items() if k not in provenance}
            == {k: v for k, v in executed.items() if k not in provenance})
