"""Tests for the chaos layer: plan, injector seams, and the campaign.

The expensive end-to-end campaign lives in ``scripts/chaos_smoke.py``
(CI job ``chaos-smoke``); here we test the pieces and one small
deterministic sweep-under-chaos.
"""

import errno
import json

import pytest

from repro.chaos import injector
from repro.chaos.plan import (CLIENT_FLAVORS, DISK_FLAVORS, PLAN_ENV,
                              SEAMS, ChaosPlan)
from repro.chaos.campaign import campaign_plan, planned_sweep_faults
from repro.cores import ROCKET
from repro.cores.batch import parse_grid, run_batch
from repro.reliability import ResilientRunner, TMAJob
from repro.tools import cache
from repro.tools.tma_tool import run_core
from repro.workloads import trace_cache


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    trace_cache.clear_memory()
    yield tmp_path
    trace_cache.clear_memory()


@pytest.fixture(autouse=True)
def chaos_off():
    injector.deactivate()
    injector.reset_counters()
    yield
    injector.deactivate()
    injector.reset_counters()


# ---------------------------------------------------------------------------
# plan determinism
# ---------------------------------------------------------------------------

def test_decisions_are_pure_functions_of_seed_seam_key():
    plan = ChaosPlan(seed=42, disk_fault_rate=0.5, client_fault_rate=0.5,
                     worker_kill_rate=0.5, sched_stall_rate=0.5)
    again = ChaosPlan(seed=42, disk_fault_rate=0.5, client_fault_rate=0.5,
                      worker_kill_rate=0.5, sched_stall_rate=0.5)
    keys = [f"key-{i}" for i in range(64)]
    for seam in SEAMS:
        assert ([plan.decide(seam, key) for key in keys]
                == [again.decide(seam, key) for key in keys])
    # A different seed redraws the schedule.
    other = ChaosPlan(seed=43, disk_fault_rate=0.5, client_fault_rate=0.5,
                      worker_kill_rate=0.5, sched_stall_rate=0.5)
    assert (
        [plan.decide("disk_fault", key) for key in keys]
        != [other.decide("disk_fault", key) for key in keys])


def test_rates_gate_decision_frequency():
    never = ChaosPlan(seed=1)  # all rates default to 0.0
    always = ChaosPlan(seed=1, disk_fault_rate=1.0)
    keys = [f"key-{i}" for i in range(32)]
    assert all(never.decide("disk_fault", key) is None for key in keys)
    flavors = {always.decide("disk_fault", key) for key in keys}
    assert None not in flavors
    assert flavors <= set(DISK_FLAVORS)


def test_planned_faults_enumerates_the_schedule():
    plan = ChaosPlan(seed=5, client_fault_rate=0.5)
    keys = [f"req-{i}" for i in range(40)]
    planned = plan.planned_faults("client_fault", keys)
    assert planned == [(key, plan.decide("client_fault", key))
                       for key in keys
                       if plan.decide("client_fault", key) is not None]
    assert 0 < len(planned) < len(keys)
    assert all(flavor in CLIENT_FLAVORS for _key, flavor in planned)


def test_plan_round_trips_through_json_and_env(monkeypatch):
    plan = ChaosPlan(seed=9, worker_kill_rate=0.25, disk_fault_rate=0.5)
    assert ChaosPlan.from_json(plan.to_json()) == plan
    monkeypatch.setenv(PLAN_ENV, plan.to_json())
    assert ChaosPlan.from_env() == plan
    monkeypatch.setenv(PLAN_ENV, "{not json")
    assert ChaosPlan.from_env() is None
    with pytest.raises(ValueError):
        ChaosPlan.from_payload({"seed": 1, "warp_drive_rate": 0.5})


# ---------------------------------------------------------------------------
# injector seams
# ---------------------------------------------------------------------------

def test_hooks_are_noops_without_an_active_plan():
    data = b"payload-bytes" * 4
    assert injector.mangle_write("result-cache:k", data) == data
    assert injector.client_fault("GET:/metrics:req-0") is None
    assert injector.maybe_stall() == 0.0
    injector.maybe_kill_worker("shard:x:y")  # must not exit
    assert injector.counters() == {}


def test_activation_scopes_and_exports_to_children(monkeypatch):
    monkeypatch.delenv(PLAN_ENV, raising=False)
    plan = ChaosPlan(seed=3, disk_fault_rate=1.0)
    assert injector.plan() is None
    with injector.active(plan):
        assert injector.plan() == plan
        # Exported for pool workers; worker_init adopts it.
        assert ChaosPlan.from_json(json.dumps(
            json.loads(__import__("os").environ[PLAN_ENV]))) == plan
        assert injector.activate_from_env() == plan
    assert injector.plan() is None
    assert PLAN_ENV not in __import__("os").environ


def test_mangle_write_flavors():
    plan = ChaosPlan(seed=0, disk_fault_rate=1.0)
    data = bytes(range(64))
    flavors = {}
    with injector.active(plan):
        for i in range(64):
            key = f"result-cache:entry-{i}"
            flavor = plan.decide("disk_fault", key)
            if flavor in flavors:
                continue
            if flavor == "enospc":
                with pytest.raises(OSError) as excinfo:
                    injector.mangle_write(key, data)
                assert excinfo.value.errno == errno.ENOSPC
                flavors[flavor] = None
            else:
                flavors[flavor] = injector.mangle_write(key, data)
    assert set(flavors) == set(DISK_FLAVORS)
    truncated = flavors["truncate"]
    assert 0 < len(truncated) < len(data)
    assert data.startswith(truncated)
    flipped = flavors["bitflip"]
    assert len(flipped) == len(data) and flipped != data
    assert sum(a != b for a, b in zip(flipped, data)) == 1


def test_connection_error_carries_errno():
    refused = injector.ChaosConnectionError("refuse", "POST:/jobs:req-0")
    reset = injector.ChaosConnectionError("reset", "POST:/jobs:req-1")
    assert refused.errno == errno.ECONNREFUSED
    assert reset.errno == errno.ECONNRESET


# ---------------------------------------------------------------------------
# seam integration: corrupted caches quarantine, never propagate
# ---------------------------------------------------------------------------

def test_corrupt_result_cache_write_is_quarantined_on_next_run():
    runner = ResilientRunner()
    job = TMAJob(workload="median", config="rocket", scale=0.2)
    plan = ChaosPlan(seed=11, disk_fault_rate=1.0)
    key = cache.cache_key("median", 0.2, ROCKET)
    assert job.cache_key() == key
    # The seam decides on the entry's identity, not its full key.  Only
    # exercise a *corrupting* flavor here (enospc leaves no entry).
    chaos_key = cache.fault_key("result",
                                cache.entry_identity("median", 0.2, ROCKET))
    assert chaos_key == f"result-cache:{key.split('-')[0]}"
    flavor = plan.decide("disk_fault", chaos_key)
    if flavor == "enospc":
        plan = ChaosPlan(seed=12, disk_fault_rate=1.0)
        flavor = plan.decide("disk_fault", chaos_key)
    assert flavor in ("truncate", "bitflip")

    with injector.active(plan):
        first = runner.run_one(job)
    assert first.status == "ok"
    # The stored entry is damaged: the next chaos-free run refuses it,
    # quarantines it and recomputes.
    assert cache.entry_path(key).exists()
    second = runner.run_one(job)
    assert second.status == "ok"
    assert second.quarantined is True
    assert (cache.serialize_result(first.measurement.result)
            == cache.serialize_result(second.measurement.result))
    assert cache.load(key) is not None  # repopulated intact


def test_corrupt_trace_cache_entry_is_a_counted_miss():
    from repro.workloads import build_trace, clear_caches

    built = build_trace("vvadd", scale=0.1)
    path = cache.entry_path(trace_cache.trace_key("vvadd", 0.1), "trace")
    # Flip one payload byte on disk: the sealed envelope must catch it
    # even though the columnar codec itself has no content digest.
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    clear_caches()

    again = build_trace("vvadd", scale=0.1)
    stats = trace_cache.stats()
    assert stats["disk_corrupt"] == 1
    assert stats["misses"] == 1
    assert len(again) == len(built)
    assert path.exists()  # repopulated intact by the rebuild
    clear_caches()
    assert trace_cache.stats() == {key: 0 for key in
                                   ("mem_hits", "disk_hits", "misses",
                                    "disk_corrupt")}
    final = build_trace("vvadd", scale=0.1)
    assert trace_cache.stats()["disk_hits"] == 1
    assert len(final) == len(built)


def test_sweep_fault_schedule_ignores_source_fingerprints(monkeypatch):
    """Editing the simulator must not redraw a seeded fault schedule."""
    plan = campaign_plan(1234)
    workloads = ["median", "qsort", "towers"]
    points = parse_grid("rocket,large-boom")
    sample = run_core("vvadd", ROCKET, scale=0.1, use_cache=False)

    def corrupted_by_the_seam():
        # Entries whose result-cache write the plan leaves damaged.
        damaged = []
        with injector.active(plan):
            for workload in workloads:
                for point in points:
                    key = cache.cache_key(workload, 0.2, point.config)
                    if cache.store(key, sample) and cache.load(key) is None:
                        damaged.append(f"{workload}:{point.key}")
        return sorted(damaged)

    planned = planned_sweep_faults(plan, workloads, points, 0.2)
    seam = corrupted_by_the_seam()
    assert seam == planned["corrupting"]
    monkeypatch.setattr(cache, "model_fingerprint", lambda: "0" * 16)
    monkeypatch.setattr(trace_cache, "fingerprint", lambda: "f" * 16)
    assert planned_sweep_faults(plan, workloads, points, 0.2) == planned
    assert corrupted_by_the_seam() == seam


# ---------------------------------------------------------------------------
# worker kills: a chaos-killed pool sweep still completes every pair
# ---------------------------------------------------------------------------

def test_parallel_sweep_survives_injected_worker_kills():
    points = parse_grid("rocket,small-boom")
    baseline = run_batch("vvadd", points, scale=0.1, use_cache=False,
                         workers=2)
    with injector.active(ChaosPlan(seed=1, worker_kill_rate=1.0)):
        chaotic = run_batch("vvadd", points, scale=0.1, use_cache=False,
                            workers=2)

    assert baseline.stats.mode == "pool"
    # Every pool task drew a kill; the parent re-ran each point.
    assert chaotic.stats.mode == "inline"
    assert chaotic.stats.fallback_reason.startswith("BrokenProcessPool")
    assert ([cache.serialize_result(r) for r in chaotic.results]
            == [cache.serialize_result(r) for r in baseline.results])
