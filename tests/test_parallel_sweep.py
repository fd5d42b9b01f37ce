"""Parallel sweeps through ``pool.fan_out``: equivalence and recovery.

Parallelism must be *invisible* in the results: a grid fanned out over
a process pool must merge to exactly what the inline path produces,
point for point, and every failure mode — dead workers, unpicklable
tasks, platforms without process pools — must degrade to that same
answer with the fallback labeled.
"""

import dataclasses
import pickle

import pytest

from repro.chaos import injector
from repro.chaos.plan import ChaosPlan
from repro.cores.base import RocketConfig
from repro.cores.batch import GridPoint, parse_grid, point_task_key, run_batch
from repro.cores.configs import ROCKET
from repro.cores.windowed import run_windowed, run_windowed_points
from repro.tools import pool
from repro.tools.pool import FanoutReport, fan_out

WORKLOADS = ["dhrystone", "median", "qsort", "towers"]
GRID = parse_grid("rocket,small-boom")
SCALE = 0.1


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


def batch_digests(workload, points=GRID, **kwargs):
    batch = run_batch(workload, points, scale=SCALE, use_cache=False,
                      **kwargs)
    return [result_digest(result) for result in batch.results], batch.stats


@pytest.fixture(scope="module")
def inline_digests():
    return {workload: batch_digests(workload, workers=1)[0]
            for workload in WORKLOADS}


def _square(x):
    return x * x


# ----------------------------------------------------------------------
# fan_out itself


def test_fan_out_runs_every_task_once_and_labels_the_mode():
    tasks = [(f"t{i}", i) for i in range(6)]
    seen = []
    report = fan_out(tasks, _square, _square, 2,
                     on_result=lambda key, value: seen.append((key, value)))
    assert report == FanoutReport(mode="pool", workers=2)
    assert sorted(seen) == sorted((f"t{i}", i * i) for i in range(6))

    seen.clear()
    report = fan_out(tasks, _square, _square, 1,
                     on_result=lambda key, value: seen.append((key, value)))
    assert report == FanoutReport(mode="inline", workers=1)
    assert seen == [(f"t{i}", i * i) for i in range(6)]  # task order
    with pytest.raises(ValueError, match="unique"):
        fan_out([("k", 1), ("k", 2)], _square, _square, 2)


def test_fan_out_reruns_failed_futures_inline():
    # A lambda cannot be pickled into a pool worker: every future
    # raises, and every task re-runs through inline_fn in the parent.
    results = {}
    report = fan_out([("a", 2), ("b", 3)], lambda x: x * x, _square, 2,
                     on_result=results.__setitem__)
    assert results == {"a": 4, "b": 9}
    assert report.mode == "inline"
    assert report.fallback_reason is not None


# ----------------------------------------------------------------------
# run_batch over the pool


def test_parallel_merges_bit_identical_to_serial(inline_digests):
    for workload in WORKLOADS:
        digests, stats = batch_digests(workload, workers=2)
        assert stats.mode == "pool"
        assert stats.workers == 2
        assert stats.fallback_reason is None
        assert digests == inline_digests[workload], workload


def test_parallel_repeats_deterministically():
    first, _ = batch_digests("qsort", workers=2)
    second, _ = batch_digests("qsort", workers=2)
    assert first == second


def test_worker_crash_recovers_serially(inline_digests):
    # Kill only the qsort points' workers; the parent re-runs whatever
    # the broken pool took down with them.
    plan = ChaosPlan(seed=3, worker_kill_rate=0.5)
    keys = [point_task_key("qsort", point) for point in GRID]
    assert any(plan.decide("worker_kill", key) for key in keys)
    with injector.active(plan):
        digests, stats = batch_digests("qsort", workers=2)
    assert stats.mode in ("inline", "mixed")
    assert stats.fallback_reason.startswith("BrokenProcessPool")
    assert digests == inline_digests["qsort"]


def test_serial_fallback_when_pool_unavailable(inline_digests,
                                               monkeypatch):
    def no_pool(workers):
        raise OSError("fork unavailable")

    monkeypatch.setitem(pool.EXECUTOR_FACTORIES, "process", no_pool)
    digests, stats = batch_digests("median", workers=2)
    assert stats.mode == "inline"
    assert stats.fallback_reason == "OSError: fork unavailable"
    assert digests == inline_digests["median"]


class UnpicklableRocketConfig(RocketConfig):
    """Functionally ROCKET, but refuses to cross a process boundary."""

    def __reduce__(self):
        raise pickle.PicklingError("config cannot be pickled")


def test_serial_fallback_on_unpicklable_grid():
    points = [GridPoint("rocket", ROCKET),
              GridPoint("odd-rocket", UnpicklableRocketConfig())]
    digests, stats = batch_digests("median", points, workers=2)
    assert stats.mode == "mixed"
    assert "config cannot be pickled" in stats.fallback_reason
    assert digests[0] == digests[1]  # the same core, run inline


# ----------------------------------------------------------------------
# pool-kill property: every fan-out path, every worker killed


def _batch_path(workers, windows=None):
    batch = run_batch("towers", GRID, scale=SCALE, use_cache=False,
                      workers=workers, windows=windows)
    digests = [result_digest(result) for result in batch.results]
    return digests, batch.stats.fallback_reason


def _windowed_path(workers):
    result = run_windowed("towers", ROCKET, windows=2, scale=SCALE,
                          use_cache=False, workers=workers)
    return [result_digest(result)], result.windowed.get("fallback_reason")


def _windowed_points_path(workers):
    results, report = run_windowed_points("towers", GRID, windows=2,
                                          scale=SCALE, workers=workers)
    digests = [result_digest(results[point.key]) for point in GRID]
    return digests, report.fallback_reason


FANOUT_PATHS = {
    "run_batch": _batch_path,
    "run_batch-windows": lambda workers: _batch_path(workers, windows=2),
    "run_windowed": _windowed_path,
    "run_windowed_points": _windowed_points_path,
}


@pytest.mark.parametrize("path", sorted(FANOUT_PATHS))
def test_pool_kill_matches_inline(path):
    run = FANOUT_PATHS[path]
    inline, reason = run(1)
    assert reason is None
    with injector.active(ChaosPlan(seed=7, worker_kill_rate=1.0)):
        killed, reason = run(2)
    assert killed == inline
    assert reason.startswith("BrokenProcessPool")
