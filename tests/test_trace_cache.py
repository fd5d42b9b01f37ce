"""Trace memoization tiers: hits, eviction, isolation, keying."""

import pytest

from repro.isa import ColumnarTrace
from repro.reliability import ResilientRunner, TMAJob
from repro.workloads import build_trace, clear_caches, trace_cache


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
    assert (trace_cache.entry_path("vvadd", 0.5)
            != trace_cache.entry_path("vvadd", 2.0))


def test_disk_tier_disabled_by_env(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    build_trace("vvadd")
    assert not trace_cache.trace_dir().exists()
    trace_cache.clear_memory()
    build_trace("vvadd")  # no disk tier: cold again
    assert trace_cache.stats()["misses"] == 1
    assert trace_cache.stats()["disk_hits"] == 0


def test_memory_tier_is_bounded(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE_MEM", "1")
    build_trace("vvadd")
    build_trace("median")  # evicts vvadd from the memory tier
    before = trace_cache.stats()
    build_trace("vvadd")
    delta = trace_cache.stats_delta(before)
    assert delta["mem_hits"] == 0
    assert delta["disk_hits"] == 1  # disk tier still serves it


def test_disk_tier_is_bounded(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE_ENTRIES", "2")
    for name in ("vvadd", "median", "towers", "multiply"):
        build_trace(name)
    assert len(list(trace_cache.trace_dir().glob("*.ctrc"))) == 2


def test_corrupt_disk_entry_is_a_miss_and_removed():
    build_trace("vvadd")
    path = trace_cache.entry_path("vvadd", 1.0)
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
