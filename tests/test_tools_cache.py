"""Unit tests for the on-disk store and the tma_tool pipeline."""

import pytest

import os

from repro.cores import LARGE_BOOM, ROCKET
from repro.isa.columnar import unpack
from repro.isa.errors import CacheIntegrityError
from repro.tools import rocket_with_l1d, run_core, run_tma
from repro.tools.cache import (cache_dir, cache_key, cache_limit_bytes,
                               cache_limit_entries, entry_path, load,
                               load_or_quarantine, model_fingerprint, prune,
                               read, store, usage)
from repro.workloads import build_trace, clear_caches, trace_cache


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    yield tmp_path


@pytest.fixture(scope="module")
def vvadd_results(tmp_path_factory):
    """vvadd results by scale, simulated in a store of their own.

    The store under test then holds only the entries a test writes.
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("sim"))
    try:
        return {scale: run_core("vvadd", ROCKET, scale=scale,
                                use_cache=False)
                for scale in (0.1, 0.15, 0.2, 0.25)}
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous


def test_fingerprint_stable_within_process():
    assert model_fingerprint() == model_fingerprint()
    assert len(model_fingerprint()) == 16


def test_cache_key_depends_on_inputs():
    a = cache_key("vvadd", 0.3, ROCKET)
    b = cache_key("vvadd", 0.4, ROCKET)
    c = cache_key("median", 0.3, ROCKET)
    d = cache_key("vvadd", 0.3, LARGE_BOOM)
    assert len({a, b, c, d}) == 4


def test_store_load_round_trip():
    result = run_core("vvadd", ROCKET, scale=0.2, use_cache=False)
    key = cache_key("vvadd", 0.2, ROCKET)
    store(key, result)
    loaded = load(key)
    assert loaded is not None
    assert loaded.cycles == result.cycles
    assert loaded.events == result.events
    assert loaded.lane_events == result.lane_events
    assert loaded.l1d_stats.misses == result.l1d_stats.misses
    assert loaded.ipc == pytest.approx(result.ipc)


def test_load_missing_returns_none():
    assert load("nonexistent-key") is None


def test_corrupt_entry_treated_as_miss(isolated_cache):
    key = cache_key("vvadd", 0.2, ROCKET)
    path = isolated_cache / f"{key}.json"
    path.write_text("{not json")
    assert load(key) is None


def test_unreadable_entry_treated_as_miss(isolated_cache):
    key = cache_key("vvadd", 0.2, ROCKET)
    path = isolated_cache / f"{key}.json"
    path.mkdir()  # load() hits IsADirectoryError, an OSError
    assert load(key) is None


def test_checksum_mismatch_detected(isolated_cache):
    result = run_core("vvadd", ROCKET, scale=0.2, use_cache=False)
    key = cache_key("vvadd", 0.2, ROCKET)
    store(key, result)
    path = entry_path(key)
    data = path.read_bytes()
    assert data.startswith(b"TCK1")
    path.write_bytes(data.replace(str(result.cycles).encode(),
                                  str(result.cycles + 1).encode(), 1))
    hit, damage = load_or_quarantine(key)
    assert hit is None
    assert damage.invariant == "cache-checksum"
    assert not path.exists()


def test_verify_and_quarantine_lifecycle(isolated_cache):
    key = cache_key("median", 0.2, ROCKET)
    assert load_or_quarantine(key) == (None, None)  # missing: nothing read
    result = run_core("median", ROCKET, scale=0.2, use_cache=False)
    store(key, result)
    hit, damage = load_or_quarantine(key)
    assert damage is None and hit == result         # intact: served, kept
    assert entry_path(key).exists()
    entry_path(key).write_bytes(entry_path(key).read_bytes()[:-1])
    assert load(key) is None                        # damaged: removed
    assert not entry_path(key).exists()


def _flip_positions(size):
    """Every header byte, the first and last 128 bytes, and a sample."""
    return sorted(set(range(min(size, 128)))
                  | set(range(max(0, size - 128), size))
                  | set(range(0, size, 37)))


def test_every_flipped_bit_of_a_result_entry_is_quarantined(isolated_cache):
    result = run_core("median", ROCKET, scale=0.2, use_cache=False)
    key = cache_key("median", 0.2, ROCKET)
    store(key, result)
    path = entry_path(key)
    intact = path.read_bytes()
    for position in _flip_positions(len(intact)):
        damaged = bytearray(intact)
        damaged[position] ^= 1 << (position % 8)
        path.write_bytes(bytes(damaged))
        hit, damage = load_or_quarantine(key)
        assert hit is None and damage is not None, position
        assert not path.exists(), position


def test_every_flipped_bit_of_a_trace_entry_is_quarantined(isolated_cache):
    clear_caches()
    trace = build_trace("vvadd", scale=0.1)
    key = trace_cache.trace_key("vvadd", 0.1)
    path = entry_path(key, "trace")
    intact = path.read_bytes()
    assert len(read("trace", key, unpack)) == len(trace)
    for position in _flip_positions(len(intact)):
        damaged = bytearray(intact)
        damaged[position] ^= 1 << (position % 8)
        path.write_bytes(bytes(damaged))
        with pytest.raises(CacheIntegrityError):
            read("trace", key, unpack)
        assert not path.exists(), position
    clear_caches()


def test_load_or_quarantine_reports_only_damage_it_read(isolated_cache):
    key = cache_key("median", 0.2, ROCKET)
    assert load_or_quarantine(key) == (None, None)      # absent: no label
    result = run_core("median", ROCKET, scale=0.2, use_cache=False)
    store(key, result)
    hit, damage = load_or_quarantine(key)
    assert damage is None and hit.cycles == result.cycles
    entry_path(key).write_text("{truncated")
    hit, damage = load_or_quarantine(key)
    assert hit is None
    assert damage.invariant == "cache-readable"
    assert not entry_path(key).exists()                 # quarantined


def test_store_leaves_no_tmp_files(isolated_cache):
    result = run_core("vvadd", ROCKET, scale=0.2, use_cache=False)
    store(cache_key("vvadd", 0.2, ROCKET), result)
    leftovers = [p for p in isolated_cache.iterdir()
                 if p.suffix == ".tmp"]
    assert leftovers == []


def test_failed_replace_leaves_no_tmp_in_any_store(isolated_cache,
                                                   monkeypatch):
    import errno

    from repro.service.store import ResultStore

    result = run_core("vvadd", ROCKET, scale=0.2, use_cache=False)
    trace = build_trace("vvadd", scale=0.2)
    trace_cache.clear_memory()
    # Force the trace write below.
    entry_path(trace_cache.trace_key("vvadd", 0.2), "trace").unlink(
        missing_ok=True)

    def full_disk(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    # The two caches swallow the error; the pending-job file raises.
    assert store(cache_key("vvadd", 0.2, ROCKET), result) is False
    trace_cache.get("vvadd", 0.2, lambda: trace)
    with pytest.raises(OSError):
        ResultStore().persist_pending([])
    assert sorted(isolated_cache.rglob("*.tmp")) == []
    trace_cache.clear_memory()


def test_run_core_uses_cache(isolated_cache):
    first = run_core("median", ROCKET, scale=0.2)
    assert (isolated_cache / f"{cache_key('median', 0.2, ROCKET)}.json"
            ).exists()
    second = run_core("median", ROCKET, scale=0.2)
    assert second.cycles == first.cycles


def test_run_core_determinism():
    a = run_core("median", ROCKET, scale=0.2, use_cache=False)
    b = run_core("median", ROCKET, scale=0.2, use_cache=False)
    assert a.cycles == b.cycles
    assert a.events == b.events


def test_run_tma_end_to_end():
    result = run_tma("vvadd", LARGE_BOOM, scale=0.2)
    assert result.core == "boom"
    assert result.top_level_sum() == pytest.approx(1.0)
    assert 0 <= result.level1["retiring"] <= 1


def test_rocket_with_l1d_builds_distinct_config():
    small = rocket_with_l1d(16)
    assert small.l1d.size_bytes == 16 * 1024
    assert small.name != ROCKET.name
    assert cache_key("vvadd", 0.2, small) != cache_key("vvadd", 0.2, ROCKET)


# ----------------------------------------------------------------------
# Environment-driven configuration


def test_cache_dir_honors_env(isolated_cache, monkeypatch):
    assert cache_dir() == isolated_cache
    monkeypatch.setenv("REPRO_CACHE_DIR", str(isolated_cache / "nested"))
    assert cache_dir() == isolated_cache / "nested"


def test_cache_limits_parse_env(monkeypatch):
    assert cache_limit_bytes() is None
    assert cache_limit_entries() is None
    monkeypatch.setenv("REPRO_CACHE_LIMIT_BYTES", "4096")
    monkeypatch.setenv("REPRO_CACHE_LIMIT_ENTRIES", "10")
    assert cache_limit_bytes() == 4096
    assert cache_limit_entries() == 10
    monkeypatch.setenv("REPRO_CACHE_LIMIT_BYTES", "not-a-number")
    assert cache_limit_bytes() is None


# ----------------------------------------------------------------------
# Size accounting and LRU eviction


def _fill_cache(results, scales):
    keys = []
    for scale in scales:
        key = cache_key("vvadd", scale, ROCKET)
        store(key, results[scale])
        keys.append(key)
    return keys


def _disk_bytes(root):
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def test_usage_counts_entries_and_bytes(isolated_cache, vvadd_results):
    assert usage().entries == 0
    keys = _fill_cache(vvadd_results, [0.1, 0.2])
    report = usage()
    assert report.entries == 2
    assert report.total_bytes == sum(
        entry_path(k).stat().st_size for k in keys)
    assert report.namespaces == {"result": (2, report.total_bytes),
                                 "trace": (0, 0)}
    assert not report.over_limit  # no limits set
    assert "entries: 2" in report.render()


def test_cache_stats_reports_both_namespaces(isolated_cache, capsys):
    from repro.tools.cli import main

    clear_caches()
    run_core("vvadd", ROCKET, scale=0.1)
    trace_path = entry_path(trace_cache.trace_key("vvadd", 0.1), "trace")
    result_path = entry_path(cache_key("vvadd", 0.1, ROCKET))
    assert usage().namespaces == {
        "result": (1, result_path.stat().st_size),
        "trace": (1, trace_path.stat().st_size)}
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "entries: 2 " in out
    assert f"bytes:   {_disk_bytes(isolated_cache)} " in out
    assert "result:  1 entries" in out
    assert "trace:   1 entries" in out


def test_byte_limit_bounds_results_plus_traces(isolated_cache, monkeypatch):
    workloads = ("vvadd", "median", "towers")
    clear_caches()
    for name in workloads:  # unbounded: learn the entries' sizes
        run_core(name, ROCKET, scale=0.1)
    largest = max(p.stat().st_size for p in isolated_cache.rglob("*")
                  if p.is_file())
    limit = int(largest * 1.5)
    assert _disk_bytes(isolated_cache) > limit
    for path in isolated_cache.rglob("*.*"):
        path.unlink()
    clear_caches()
    monkeypatch.setenv("REPRO_CACHE_LIMIT_BYTES", str(limit))
    for name in workloads:
        run_core(name, ROCKET, scale=0.1)
        assert _disk_bytes(isolated_cache) <= limit
    assert usage().total_bytes <= limit
    assert entry_path(cache_key(workloads[-1], 0.1, ROCKET)).exists()
    clear_caches()


def test_pending_job_files_are_never_counted_or_evicted(isolated_cache,
                                                        vvadd_results):
    pending = [isolated_cache / "pending-jobs.state",
               isolated_cache / "pending-jobs-shard-1.state"]
    for path in pending:
        path.write_text('{"version": 1, "jobs": []}')
    _fill_cache(vvadd_results, [0.1])
    assert usage().entries == 1
    assert len(prune(max_bytes=0, max_entries=0)) == 1
    assert usage().entries == 0
    assert all(path.exists() for path in pending)


def test_prune_noop_without_limits(isolated_cache, vvadd_results):
    _fill_cache(vvadd_results, [0.1, 0.2])
    assert prune() == []
    assert usage().entries == 2


def test_prune_evicts_oldest_first(isolated_cache, vvadd_results):
    keys = _fill_cache(vvadd_results, [0.1, 0.15, 0.2])
    for age, key in zip((300, 200, 100), keys):
        path = entry_path(key)
        stamp = path.stat().st_mtime - age
        os.utime(path, (stamp, stamp))
    evicted = prune(max_entries=1)
    assert evicted == keys[:2]  # oldest two gone, newest survives
    assert load(keys[2]) is not None


def test_prune_respects_keep(isolated_cache, vvadd_results):
    keys = _fill_cache(vvadd_results, [0.1, 0.15])
    old = entry_path(keys[0])
    stamp = old.stat().st_mtime - 500
    os.utime(old, (stamp, stamp))
    evicted = prune(max_entries=1, keep=(keys[0],))
    assert evicted == [keys[1]]
    assert entry_path(keys[0]).exists()


def test_load_touch_makes_eviction_lru(isolated_cache, vvadd_results):
    keys = _fill_cache(vvadd_results, [0.1, 0.15])
    # Back-date both, then touch the first via a cache hit.
    for key in keys:
        path = entry_path(key)
        stamp = path.stat().st_mtime - 500
        os.utime(path, (stamp, stamp))
    assert load(keys[0]) is not None  # refreshes mtime
    evicted = prune(max_entries=1)
    assert evicted == [keys[1]]  # the un-touched entry goes first


def test_store_enforces_env_entry_limit(isolated_cache, monkeypatch,
                                        vvadd_results):
    monkeypatch.setenv("REPRO_CACHE_LIMIT_ENTRIES", "2")
    keys = _fill_cache(vvadd_results, [0.1, 0.15, 0.2, 0.25])
    assert usage().entries <= 2
    # The most recent write always survives its own enforcement pass.
    assert entry_path(keys[-1]).exists()


def test_store_enforces_env_byte_limit(isolated_cache, monkeypatch,
                                       vvadd_results):
    keys = _fill_cache(vvadd_results, [0.1])
    entry_bytes = entry_path(keys[0]).stat().st_size
    monkeypatch.setenv("REPRO_CACHE_LIMIT_BYTES", str(int(entry_bytes * 1.5)))
    _fill_cache(vvadd_results, [0.15, 0.2])
    assert usage().total_bytes <= int(entry_bytes * 1.5)
    assert usage().entries == 1
