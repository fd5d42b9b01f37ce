"""Trace memoization tiers: hits, eviction, isolation, keying."""

import dataclasses

import pytest

from repro.isa import ColumnarTrace
from repro.cores import ROCKET
from repro.reliability import ResilientRunner, TMAJob
from repro.tools import cache, run_core
from repro.workloads import build_trace, clear_caches, registry, trace_cache


@pytest.fixture(autouse=True)
def isolated_trace_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_caches()
    yield tmp_path
    clear_caches()


def test_miss_then_memory_hit_then_disk_hit():
    first = build_trace("vvadd")
    assert isinstance(first, ColumnarTrace)
    assert trace_cache.stats() == {
        "mem_hits": 0, "disk_hits": 0, "misses": 1, "disk_corrupt": 0}

    assert build_trace("vvadd") is first
    assert trace_cache.stats()["mem_hits"] == 1

    trace_cache.clear_memory()  # simulate a fresh worker process
    reloaded = build_trace("vvadd")
    assert trace_cache.stats()["disk_hits"] == 1
    assert len(reloaded) == len(first)
    assert reloaded.exit_code == first.exit_code


def test_warm_hit_rate_exceeds_acceptance_bar():
    workloads = ["vvadd", "median", "towers"]
    for name in workloads:  # cold
        build_trace(name)
    before = trace_cache.stats()
    for _ in range(3):  # warm re-runs
        for name in workloads:
            build_trace(name)
    warm = trace_cache.stats_delta(before)
    assert trace_cache.hit_rate(warm) >= 0.9
    assert warm["misses"] == 0


def test_scale_is_part_of_the_key():
    small = build_trace("vvadd", scale=0.5)
    large = build_trace("vvadd", scale=2.0)
    assert len(small) != len(large)
    assert trace_cache.stats()["misses"] == 2
    assert (trace_cache.trace_key("vvadd", 0.5)
            != trace_cache.trace_key("vvadd", 2.0))


def test_memory_tier_is_bounded(monkeypatch):
    monkeypatch.setattr(trace_cache, "MEMORY_ENTRIES", 1)
    build_trace("vvadd")
    build_trace("median")  # evicts vvadd from the memory tier
    before = trace_cache.stats()
    build_trace("vvadd")
    delta = trace_cache.stats_delta(before)
    assert delta["mem_hits"] == 0
    assert delta["disk_hits"] == 1  # disk tier still serves it


def test_disk_tier_is_bounded(monkeypatch):
    monkeypatch.setattr(cache, "TRACE_ENTRIES", 2)
    result_key = cache.cache_key("vvadd", 1.0, ROCKET)
    cache.store(result_key, run_core("vvadd", ROCKET, use_cache=False))
    for name in ("vvadd", "median", "towers", "multiply"):
        build_trace(name)
    assert cache.usage().namespaces["trace"][0] == 2
    # Without a budget the cap evicts traces only, never a result.
    assert cache.entry_path(result_key).exists()
    # The store's budget bounds the trace namespace too.
    monkeypatch.setenv("REPRO_CACHE_LIMIT_ENTRIES", "1")
    clear_caches()
    build_trace("qsort")
    assert cache.usage().namespaces["trace"][0] == 1


def test_corrupt_disk_entry_is_a_miss_and_removed():
    build_trace("vvadd")
    path = cache.entry_path(trace_cache.trace_key("vvadd", 1.0), "trace")
    assert path.exists()
    path.write_bytes(b"garbage")
    trace_cache.clear_memory()
    trace = build_trace("vvadd")  # re-executes instead of crashing
    assert trace.exit_code is not None
    assert trace_cache.stats() == {
        "mem_hits": 0, "disk_hits": 0, "misses": 1, "disk_corrupt": 1}
    assert not path.exists() or path.read_bytes() != b"garbage"


def test_runner_outcome_carries_cache_delta():
    runner = ResilientRunner()
    cold = runner.run_one(TMAJob(workload="vvadd", config="rocket",
                                 use_cache=False))
    assert cold.ok
    assert cold.trace_cache["misses"] == 1
    warm = runner.run_one(TMAJob(workload="vvadd", config="small-boom",
                                 use_cache=False))
    assert warm.trace_cache["misses"] == 0
    assert warm.trace_cache["mem_hits"] >= 1


def test_fingerprint_change_invalidates_key(monkeypatch):
    key_before = trace_cache.trace_key("vvadd", 1.0)
    monkeypatch.setattr(trace_cache, "fingerprint", lambda: "deadbeef00000000")
    assert trace_cache.trace_key("vvadd", 1.0) != key_before


def test_wrong_exit_code_raises_and_memoizes_nothing(monkeypatch):
    vvadd = registry.get_workload("vvadd")
    broken = dataclasses.replace(
        vvadd, expected_exit=lambda scale: vvadd.expected_exit(scale) + 1)
    monkeypatch.setitem(registry._REGISTRY, "vvadd", broken)
    with pytest.raises(AssertionError, match="exited with"):
        build_trace("vvadd", scale=0.1)
    assert cache.usage().namespaces["trace"] == (0, 0)
    monkeypatch.setitem(registry._REGISTRY, "vvadd", vvadd)
    build_trace("vvadd", scale=0.1)  # neither tier holds the bad trace
    assert trace_cache.stats()["mem_hits"] == 0
    assert trace_cache.stats()["misses"] == 1
