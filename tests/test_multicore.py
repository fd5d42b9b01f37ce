"""Multicore interference TMA: oracle identity, attribution, service.

The load-bearing guarantees:

- **Solo-oracle identity**: a scenario with one active core — via the
  threadless shortcut or the full uncore + turnstile lockstep stack —
  is bit-identical to :func:`repro.tools.tma_tool.run_core`, and an
  idle neighbor induces exactly zero neighbor attribution.
- **Slot conservation under sharing**: per-core level-1 TMA slots sum
  to 1.0 and ``self + neighbor == mem_bound`` exactly (as floats) on
  every scenario in the registry.
- **Determinism**: the turnstile serializes cycles, so repeated runs
  are bit-identical.
"""

import dataclasses
import time

import pytest

from repro.core.tma import split_slots
from repro.cores import config_by_name
from repro.multicore import (
    CoreSlot,
    MulticoreError,
    Scenario,
    SharedUncore,
    get_scenario,
    run_scenario,
    run_scenario_payload,
    scenario_cache_key,
    scenario_names,
)
from repro.tools.tma_tool import run_core
from repro.uarch.cache import Cache, L1D_32K, NonBlockingCache

SCALE = 0.1

#: >= 10 registry workloads, each pinned on Rocket and BOOM.
ORACLE_WORKLOADS = ("median", "vvadd", "qsort", "towers", "mm", "spmv",
                    "mergesort", "multiply", "dhrystone", "coremark")


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    yield tmp_path


def result_digest(result):
    return (
        result.cycles,
        result.instret,
        dataclasses.astuple(result.l1i_stats),
        dataclasses.astuple(result.l1d_stats),
        dataclasses.astuple(result.l2_stats),
        dataclasses.astuple(result.predictor_stats),
    )


def solo_scenario(workload, config, idle_neighbor=False):
    slots = [CoreSlot(workload, config)]
    if idle_neighbor:
        slots.append(CoreSlot("idle", "rocket"))
    return Scenario(name=f"solo-{workload}", description="test",
                    slots=tuple(slots), scale=SCALE)


# ----------------------------------------------------------------------
# Solo-oracle identity


@pytest.mark.parametrize("config", ["rocket", "large-boom"])
@pytest.mark.parametrize("workload", ORACLE_WORKLOADS)
def test_threadless_solo_is_bit_identical_to_run_core(workload, config):
    result = run_scenario(solo_scenario(workload, config))
    core = result.core_at(0)
    solo = run_core(workload, config_by_name(config), scale=SCALE,
                    use_cache=False)
    assert result_digest(core.result) == result_digest(solo)
    assert core.attribution.neighbor_share == 0.0
    assert core.attribution.self_share == core.attribution.mem_bound


@pytest.mark.parametrize("config", ["rocket", "large-boom"])
@pytest.mark.parametrize("workload", ["median", "spmv"])
def test_lockstep_solo_with_idle_neighbor_matches_oracle(workload, config):
    """One active core through the full uncore + turnstile stack."""
    scenario = solo_scenario(workload, config, idle_neighbor=True)
    result = run_scenario(scenario, force_lockstep=True)
    core = result.core_at(0)
    solo = run_core(workload, config_by_name(config), scale=SCALE,
                    use_cache=False)
    assert result_digest(core.result) == result_digest(solo)
    # The idle-neighbor invariant: exactly zero, not approximately.
    assert core.attribution.neighbor_share == 0.0
    assert core.uncore.neighbor_induced_misses == 0
    assert core.uncore.bus_wait_neighbor == 0


#: The two trace forms a core accepts, by the functional executor that
#: produces them: compiled -> ``ColumnarTrace``, interpreted -> the
#: object-form ``DynamicTrace`` (converted by ``from_dynamic``).
TRACE_FORMS = {"columnar": "compiled", "objects": "interpreted"}


@pytest.mark.parametrize("trace_form", list(TRACE_FORMS))
def test_solo_identity_holds_on_both_engines(trace_form, monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_ENGINE", TRACE_FORMS[trace_form])
    result = run_scenario(solo_scenario("vvadd", "rocket"))
    solo = run_core("vvadd", config_by_name("rocket"), scale=SCALE,
                    use_cache=False)
    assert result_digest(result.core_at(0).result) == result_digest(solo)


# ----------------------------------------------------------------------
# Attribution invariants across the scenario registry


@pytest.mark.parametrize("name", scenario_names())
@pytest.mark.parametrize("trace_form", list(TRACE_FORMS))
def test_scenario_attribution_invariants(name, trace_form, monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_ENGINE", TRACE_FORMS[trace_form])
    scenario = get_scenario(name).with_overrides(scale=SCALE)
    result = run_scenario(scenario)
    assert result.cores, "scenario ran no cores"
    for core in result.cores:
        level1_sum = sum(core.tma.level1.values())
        assert level1_sum == pytest.approx(1.0, abs=1e-9)
        attribution = core.attribution
        # Exact float identity, not approx: split_slots pins it.
        assert (attribution.self_share + attribution.neighbor_share
                == attribution.mem_bound)
        assert attribution.self_share >= 0.0
        assert attribution.neighbor_share >= 0.0
        assert 0.0 <= attribution.neighbor_fraction <= 1.0
        metrics = core.uncore
        assert (metrics.self_misses + metrics.neighbor_induced_misses
                == metrics.misses)
    shares = [core.bandwidth_share for core in result.cores]
    assert sum(shares) == pytest.approx(1.0) or all(s == 0.0
                                                    for s in shares)


def test_repeated_scenario_runs_are_bit_identical():
    scenario = get_scenario("noisy-neighbor").with_overrides(scale=SCALE)
    first = run_scenario(scenario)
    again = run_scenario(scenario)
    assert ([result_digest(c.result) for c in first.cores]
            == [result_digest(c.result) for c in again.cores])
    assert ([c.attribution.to_payload() for c in first.cores]
            == [c.attribution.to_payload() for c in again.cores])
    assert ([c.uncore.to_payload() for c in first.cores]
            == [c.uncore.to_payload() for c in again.cores])


def test_capacity_clash_exercises_neighbor_attribution():
    """The shrunken-L2 scenario must actually produce neighbor misses."""
    result = run_scenario(get_scenario("capacity-clash"))
    induced = sum(c.uncore.neighbor_induced_misses for c in result.cores)
    assert induced > 0
    victim = max(result.cores,
                 key=lambda c: c.attribution.neighbor_share)
    assert victim.attribution.neighbor_share > 0.0


def test_interference_costs_the_victim_cycles():
    """Co-running with an aggressor must not be free."""
    scenario = get_scenario("noisy-neighbor").with_overrides(scale=SCALE)
    shared = run_scenario(scenario)
    solo = run_core("median", config_by_name("rocket"), scale=SCALE,
                    use_cache=False)
    victim = shared.core_at(0)
    assert victim.result.cycles >= solo.cycles
    assert victim.attribution.neighbor_share > 0.0


# ----------------------------------------------------------------------
# Scenario model


def test_with_overrides_pads_with_idle_slots():
    scenario = get_scenario("noisy-neighbor").with_overrides(cores=4)
    assert len(scenario.slots) == 4
    assert [slot.idle for slot in scenario.slots] == [False, False,
                                                      True, True]
    assert len(scenario.active_slots()) == 2


def test_with_overrides_trims_to_one_core():
    scenario = get_scenario("latency-victim").with_overrides(cores=1)
    assert len(scenario.slots) == 1
    assert scenario.slots[0].workload == "qsort"


def test_scenario_validation_rejects_bad_specs():
    with pytest.raises(ValueError):
        get_scenario("noisy-neighbor").with_overrides(cores=9)
    with pytest.raises(ValueError):
        Scenario(name="bad", description="", slots=()).validate()
    with pytest.raises(ValueError):
        Scenario(name="bad", description="",
                 slots=(CoreSlot("idle", "rocket"),)).validate()
    with pytest.raises(KeyError):
        Scenario(name="bad", description="",
                 slots=(CoreSlot("no-such-workload", "rocket"),)).validate()
    with pytest.raises(KeyError):
        get_scenario("no-such-scenario")


def test_core_failure_surfaces_as_multicore_error():
    scenario = get_scenario("noisy-neighbor").with_overrides(scale=SCALE)
    with pytest.raises(MulticoreError):
        run_scenario(scenario, max_cycles=10)


# ----------------------------------------------------------------------
# split_slots (exact-conservation helper)


def test_split_slots_is_exactly_conservative():
    for total, a, b in ((0.417, 1536.0, 122.0), (0.1, 3.0, 7.0),
                        (0.9999, 1e12, 1.0), (0.25, 0.1, 0.1)):
        shares = split_slots(total, a, b)
        assert shares["a"] + shares["b"] == total


def test_split_slots_zero_weight_is_exactly_zero():
    assert split_slots(0.5, 10.0, 0.0) == {"a": 0.5, "b": 0.0}
    assert split_slots(0.5, 0.0, 10.0) == {"a": 0.0, "b": 0.5}
    assert split_slots(0.5, 0.0, 0.0) == {"a": 0.5, "b": 0.0}


# ----------------------------------------------------------------------
# Per-requestor cache stats (uarch seam under the uncore)


def test_single_requestor_stats_match_aggregate():
    cache = Cache(L1D_32K)
    for addr in range(0, 64 * 200, 64):
        cache.access(addr, cycle=0, requestor=3)
    mine = cache.per_requestor(3)
    assert mine.accesses == cache.stats.accesses
    assert mine.misses == cache.stats.misses


def test_requestor_stats_partition_the_aggregate():
    cache = Cache(L1D_32K)
    for addr in range(0, 64 * 100, 64):
        cache.access(addr, cycle=0, requestor=0)
    for addr in range(64 * 50, 64 * 150, 64):
        cache.access(addr, cycle=0, requestor=1)
    total_accesses = sum(s.accesses for s in cache.requestor_stats.values())
    total_misses = sum(s.misses for s in cache.requestor_stats.values())
    assert total_accesses == cache.stats.accesses
    assert total_misses == cache.stats.misses


def test_writebacks_attributed_to_triggering_requestor():
    from repro.uarch.cache import CacheConfig

    tiny = CacheConfig("L1D", 2 * 64, 1, 64, hit_latency=1)
    cache = Cache(tiny)
    cache.access(0, is_store=True, cycle=0, requestor=0)  # dirty set 0
    cache.access(2 * 64, cycle=0, requestor=1)  # evicts requestor 0's line
    assert cache.per_requestor(1).writebacks == cache.stats.writebacks == 1
    assert cache.per_requestor(0).writebacks == 0


def test_nonblocking_cache_forwards_requestor():
    nb = NonBlockingCache(L1D_32K, 4)
    nb.access(0, cycle=0, requestor=7)
    nb.access(64 * 1024, cycle=0, requestor=7)
    stats = nb.cache.per_requestor(7)
    assert stats.accesses == 2
    assert stats.misses == 2


# ----------------------------------------------------------------------
# Shared uncore unit behaviour


def test_uncore_coloring_keeps_requestors_apart():
    uncore = SharedUncore(2)
    addr = 0x1000
    uncore.access(0, addr, False, 100)
    hit, latency = uncore.access(1, addr, False, 200)
    # Same address, different requestor: a fresh (colored) miss, so the
    # second requestor cannot silently hit the first one's line.
    assert not hit
    assert uncore.metrics[1].misses == 1
    assert latency > 0


def test_private_bus_never_attributes_neighbor_waits():
    uncore = SharedUncore(2, shared_bus=False)
    for i in range(8):
        uncore.access(0, 0x10000 + i * 64, False, i)
        uncore.access(1, 0x90000 + i * 64, False, i)
    assert uncore.metrics[0].bus_wait_neighbor == 0
    assert uncore.metrics[1].bus_wait_neighbor == 0


# ----------------------------------------------------------------------
# Cached payload entry point


def test_run_scenario_payload_round_trips_through_cache():
    first = run_scenario_payload("noisy-neighbor", scale=SCALE)
    assert first["from_cache"] is False
    again = run_scenario_payload("noisy-neighbor", scale=SCALE)
    assert again["from_cache"] is True
    first.pop("from_cache")
    again.pop("from_cache")
    assert first == again


def test_run_scenario_payload_no_cache_bypasses_store():
    first = run_scenario_payload("symmetric", scale=SCALE, use_cache=False)
    again = run_scenario_payload("symmetric", scale=SCALE, use_cache=False)
    assert first["from_cache"] is False
    assert again["from_cache"] is False


def test_scenario_cache_key_covers_every_knob():
    base = get_scenario("noisy-neighbor")
    keys = {
        scenario_cache_key(base),
        scenario_cache_key(base.with_overrides(scale=0.2)),
        scenario_cache_key(base.with_overrides(cores=3)),
        scenario_cache_key(base.with_overrides(shared_bus=False)),
        scenario_cache_key(base.with_overrides(arbitration="fcfs")),
    }
    assert len(keys) == 5


def test_payload_shape_is_json_ready():
    import json

    payload = run_scenario_payload("latency-victim", scale=SCALE, cores=4)
    document = json.loads(json.dumps(payload))
    assert document["scenario"] == "latency-victim"
    assert len(document["cores"]) == 4
    idle = [c for c in document["cores"] if c.get("idle")]
    assert len(idle) == 1
    active = [c for c in document["cores"] if not c.get("idle")]
    for core in active:
        assert set(core["tma"]["level1"]) == {"retiring", "bad_speculation",
                                              "frontend", "backend"}
        attribution = core["attribution"]
        assert (attribution["self"] + attribution["neighbor_induced"]
                == attribution["mem_bound"])


# ----------------------------------------------------------------------
# Service integration


def wait_done(service, job_id, timeout=120.0):
    deadline = time.time() + timeout
    while True:
        record = service.status(job_id)
        if record["state"] in ("done", "failed"):
            return record
        if time.time() > deadline:
            raise TimeoutError(f"job stuck in {record['state']}")
        time.sleep(0.02)


def make_service(**kwargs):
    from repro.service import TMAService

    kwargs.setdefault("workers", 2)
    kwargs.setdefault("executor", "thread")
    return TMAService(**kwargs)


def test_service_runs_multicore_job_end_to_end():
    service = make_service().start(resume=False)
    try:
        receipt = service.submit_multicore_payload(
            {"scenario": "noisy-neighbor", "scale": SCALE,
             "client": "test"})
        assert receipt.accepted
        record = wait_done(service, receipt.record.id)
        assert record["state"] == "done"
        assert record["job"]["type"] == "multicore"
        multicore = record["result"]["multicore"]
        assert multicore["scenario"] == "noisy-neighbor"
        assert len(multicore["cores"]) == 2
        # Repeat submission: served from the cached scenario payload
        # without burning a worker slot.
        repeat = service.submit_multicore_payload(
            {"scenario": "noisy-neighbor", "scale": SCALE})
        assert repeat.record.state == "done"
        assert repeat.record.result["from_cache"] is True
        assert service.metrics.counter("cache_hits") >= 1
    finally:
        service.drain(timeout=5.0)


def test_service_rejects_bad_multicore_payloads():
    from repro.service import JobValidationError

    service = make_service()
    with pytest.raises(JobValidationError):
        service.submit_multicore_payload({"scenario": "no-such"})
    with pytest.raises(JobValidationError):
        service.submit_multicore_payload({"scenario": "symmetric",
                                          "cores": 99})
    with pytest.raises(JobValidationError):
        service.submit_multicore_payload({"scenario": "symmetric",
                                          "bogus_field": 1})
    with pytest.raises(JobValidationError):
        service.submit_multicore_payload({})


def test_multicore_job_persists_across_drain():
    from repro.service import MulticoreJob, ResultStore

    store = ResultStore()
    job = MulticoreJob(scenario="symmetric", scale=SCALE, cores=2)
    store.persist_pending([job])
    assert store.load_pending() == [job]


def test_multicore_http_route():
    from repro.service import ServiceClient, serve_in_thread

    service = make_service().start(resume=False)
    server, _thread = serve_in_thread(service)
    try:
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}", timeout=60.0)
        receipt = client.submit_multicore("symmetric", scale=SCALE)
        record = client.wait(receipt["id"], timeout=120.0)
        assert record["state"] == "done"
        assert record["result"]["multicore"]["scenario"] == "symmetric"
    finally:
        server.shutdown()
        service.drain(timeout=5.0)


def test_multicore_jobs_dedup_in_flight():
    service = make_service(workers=1).start(resume=False)
    try:
        payload = {"scenario": "symmetric", "scale": SCALE}
        first = service.submit_multicore_payload(dict(payload))
        second = service.submit_multicore_payload(dict(payload))
        assert first.record.job_key == second.record.job_key
        record = wait_done(service, first.record.id)
        follower = wait_done(service, second.record.id)
        assert record["state"] == follower["state"] == "done"
    finally:
        service.drain(timeout=5.0)
