"""Unit tests for the result cache and the tma_tool pipeline."""

import pytest

import os

from repro.cores import LARGE_BOOM, ROCKET
from repro.isa.errors import CacheIntegrityError
from repro.tools import rocket_with_l1d, run_core, run_tma
from repro.tools.cache import (cache_dir, cache_key, cache_limit_bytes,
                               cache_limit_entries, entry_path, load,
                               load_or_quarantine, model_fingerprint, prune,
                               quarantine, store, usage, verify_entry)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    yield tmp_path


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
    text = path.read_text()
    assert "__sha256__" in text
    path.write_text(text.replace(str(result.cycles),
                                 str(result.cycles + 1), 1))
    with pytest.raises(CacheIntegrityError) as excinfo:
        verify_entry(key)
    assert excinfo.value.invariant == "cache-checksum"
    assert load(key) is None  # lenient reader treats damage as a miss


def test_verify_and_quarantine_lifecycle(isolated_cache):
    key = cache_key("median", 0.2, ROCKET)
    assert verify_entry(key) is False      # missing
    assert quarantine(key) is False        # nothing to remove
    result = run_core("median", ROCKET, scale=0.2, use_cache=False)
    store(key, result)
    assert verify_entry(key) is True       # intact
    assert quarantine(key) is True
    assert not entry_path(key).exists()


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
    from repro.workloads import build_trace, trace_cache

    result = run_core("vvadd", ROCKET, scale=0.2, use_cache=False)
    trace = build_trace("vvadd", scale=0.2)
    trace_cache.clear_memory()
    # Force the disk-tier write below.
    trace_cache.entry_path("vvadd", 0.2).unlink(missing_ok=True)

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


def _fill_cache(scales, workload="vvadd"):
    keys = []
    for scale in scales:
        result = run_core(workload, ROCKET, scale=scale, use_cache=False)
        key = cache_key(workload, scale, ROCKET)
        store(key, result)
        keys.append(key)
    return keys


def test_usage_counts_entries_and_bytes(isolated_cache):
    assert usage().entries == 0
    keys = _fill_cache([0.1, 0.2])
    report = usage()
    assert report.entries == 2
    assert report.total_bytes == sum(
        entry_path(k).stat().st_size for k in keys)
    assert not report.over_limit  # no limits set
    assert "entries: 2" in report.render()


def test_prune_noop_without_limits(isolated_cache):
    _fill_cache([0.1, 0.2])
    assert prune() == []
    assert usage().entries == 2


def test_prune_evicts_oldest_first(isolated_cache):
    keys = _fill_cache([0.1, 0.15, 0.2])
    for age, key in zip((300, 200, 100), keys):
        path = entry_path(key)
        stamp = path.stat().st_mtime - age
        os.utime(path, (stamp, stamp))
    evicted = prune(max_entries=1)
    assert evicted == keys[:2]  # oldest two gone, newest survives
    assert load(keys[2]) is not None


def test_prune_respects_keep(isolated_cache):
    keys = _fill_cache([0.1, 0.15])
    old = entry_path(keys[0])
    stamp = old.stat().st_mtime - 500
    os.utime(old, (stamp, stamp))
    evicted = prune(max_entries=1, keep=(keys[0],))
    assert evicted == [keys[1]]
    assert entry_path(keys[0]).exists()


def test_load_touch_makes_eviction_lru(isolated_cache):
    keys = _fill_cache([0.1, 0.15])
    # Back-date both, then touch the first via a cache hit.
    for key in keys:
        path = entry_path(key)
        stamp = path.stat().st_mtime - 500
        os.utime(path, (stamp, stamp))
    assert load(keys[0]) is not None  # refreshes mtime
    evicted = prune(max_entries=1)
    assert evicted == [keys[1]]  # the un-touched entry goes first


def test_store_enforces_env_entry_limit(isolated_cache, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_LIMIT_ENTRIES", "2")
    keys = _fill_cache([0.1, 0.15, 0.2, 0.25])
    assert usage().entries <= 2
    # The most recent write always survives its own enforcement pass.
    assert entry_path(keys[-1]).exists()


def test_store_enforces_env_byte_limit(isolated_cache, monkeypatch):
    keys = _fill_cache([0.1])
    entry_bytes = entry_path(keys[0]).stat().st_size
    monkeypatch.setenv("REPRO_CACHE_LIMIT_BYTES", str(int(entry_bytes * 1.5)))
    _fill_cache([0.15, 0.2])
    assert usage().total_bytes <= int(entry_bytes * 1.5)
    assert usage().entries == 1
