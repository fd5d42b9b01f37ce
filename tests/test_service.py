"""End-to-end tests for the queue-driven TMA analysis service."""

import time

import pytest

from repro.service import (JobRejected, ServiceClient, ServiceError,
                           TMAService, serve_in_thread)
from repro.chaos import injector
from repro.chaos.plan import ChaosPlan


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    yield tmp_path


def wait_done(service, job_ids, timeout=60.0):
    deadline = time.time() + timeout
    while True:
        states = [service.status(i)["state"] for i in job_ids]
        if all(s in ("done", "failed") for s in states):
            return states
        if time.time() > deadline:
            raise TimeoutError(f"jobs stuck in states {states}")
        time.sleep(0.02)


def make_service(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("executor", "thread")
    kwargs.setdefault("queue_capacity", 32)
    return TMAService(**kwargs)


# ----------------------------------------------------------------------
# Happy path + result payloads


def test_submit_executes_and_reports_tma():
    service = make_service().start()
    try:
        receipt = service.submit_payload(
            {"workload": "vvadd", "scale": 0.2, "config": "rocket"})
        assert receipt.accepted
        wait_done(service, [receipt.record.id])
        payload = service.status(receipt.record.id)
        assert payload["state"] == "done"
        result = payload["result"]
        assert result["from_cache"] is False
        assert result["cycles"] > 0 and result["ipc"] > 0
        level1 = result["tma"]["level1"]
        assert sum(level1.values()) == pytest.approx(1.0, abs=1e-3)
        assert payload["latency_seconds"] > 0
    finally:
        service.drain()


def test_unknown_job_id_and_validation():
    service = make_service().start()
    try:
        assert service.status("job-999999") is None
        from repro.service import JobValidationError

        with pytest.raises(JobValidationError):
            service.submit_payload({"workload": "not-a-workload"})
    finally:
        service.drain()


# ----------------------------------------------------------------------
# Dedup: one execution, N completions


def test_duplicate_jobs_execute_once_complete_n_times():
    service = make_service(workers=1).start()
    try:
        ids = []
        for i in range(8):
            receipt = service.submit_payload(
                {"workload": "median", "scale": 0.2, "config": "rocket",
                 "client": f"client-{i}"})
            assert receipt.accepted
            ids.append(receipt.record.id)
        states = wait_done(service, ids)
        assert states == ["done"] * 8
        assert service.metrics.counter("jobs_executed") == 1
        assert service.metrics.counter("dedup_hits") == 7
        assert service.metrics.counter("jobs_completed") == 8
        # Followers carry the same result payload as the primary.
        results = {service.status(i)["result"]["cycles"] for i in ids}
        assert len(results) == 1
    finally:
        service.drain()


# ----------------------------------------------------------------------
# O(1) repeat serving through the result store


def test_repeat_request_served_from_cache_without_pool():
    service = make_service().start()
    try:
        first = service.submit_payload(
            {"workload": "vvadd", "scale": 0.2, "config": "rocket"})
        wait_done(service, [first.record.id])
        executed_before = service.metrics.counter("jobs_executed")
        again = service.submit_payload(
            {"workload": "vvadd", "scale": 0.2, "config": "rocket"})
        # Completed synchronously on submit: no queue, no execution.
        assert again.record.state == "done"
        assert again.record.result["from_cache"] is True
        assert service.metrics.counter("jobs_executed") == executed_before
        assert service.metrics.counter("cache_hits") == 1
        assert (again.record.result["cycles"]
                == service.status(first.record.id)["result"]["cycles"])
    finally:
        service.drain()


@pytest.mark.parametrize("damage", ["enospc", "corrupt"])
def test_repeat_served_when_the_primary_store_write_failed(
        isolated_cache, monkeypatch, damage):
    """A failed or damaged cache write costs durability, not a re-run."""
    from repro.tools import cache

    if damage == "enospc":
        monkeypatch.setattr(cache, "store", lambda key, result: False)
    service = make_service().start()
    body = {"workload": "vvadd", "scale": 0.2, "config": "rocket"}
    try:
        first = service.submit_payload(body)
        wait_done(service, [first.record.id])
        if damage == "corrupt":
            for entry in isolated_cache.glob("*.json"):
                entry.write_text("{truncated")
        assert not list(isolated_cache.glob("*.json")) or damage == "corrupt"
        again = service.submit_payload(body)
        assert again.record.state == "done"
        assert service.metrics.counter("jobs_executed") == 1
        assert service.metrics.counter("cache_hits") == 1
        served = dict(again.record.result)
        primary = dict(service.status(first.record.id)["result"])
        assert (served.pop("from_cache"), served.pop("attempts")) == (True, 0)
        primary.pop("from_cache")
        primary.pop("attempts")
        assert served == primary
    finally:
        service.drain()


def _race_primary_past_lookup(service, monkeypatch, primary_ids):
    """Hook between a repeat's store lookup and its scheduler submit.

    The first lookup after installation misses, and the hook then waits
    for the primaries to store their results and retire: the exact
    window in which a repeat used to slip into a second execution.
    """
    real_lookup = service.store.lookup
    raced = []

    def racing_lookup(job):
        result = real_lookup(job)
        if result is None and not raced:
            raced.append(job)
            wait_done(service, primary_ids)
        return result

    monkeypatch.setattr(service.store, "lookup", racing_lookup)
    return raced


@pytest.mark.parametrize("path", ["job", "grid"])
def test_repeat_racing_its_primary_executes_once(monkeypatch, path):
    service = make_service(workers=1).start()
    body = {"workload": "vvadd", "scale": 0.2, "config": "rocket"}
    try:
        if path == "job":
            primary_ids = [service.submit_payload(body).record.id]
        else:
            grid = service.submit_grid_payload(
                {"workload": "vvadd", "grid": "rocket,small-boom",
                 "scale": 0.2})
            primary_ids = list(grid.point_record_ids.values())
        raced = _race_primary_past_lookup(service, monkeypatch, primary_ids)
        if path == "job":
            repeat_ids = [service.submit_payload(body).record.id]
        else:
            repeat = service.submit_grid_payload(
                {"workload": "vvadd", "grid": "rocket,small-boom",
                 "scale": 0.2, "client": "other"})
            repeat_ids = list(repeat.point_record_ids.values())
        assert raced, "the hook never ran between lookup and submit"
        assert wait_done(service, primary_ids + repeat_ids) == \
            ["done"] * (len(primary_ids) + len(repeat_ids))
        # One execution per job key; the repeats came from the store.
        assert service.metrics.counter("jobs_executed") == len(primary_ids)
        assert service.metrics.counter("cache_hits") == len(repeat_ids)
        for primary_id, repeat_id in zip(primary_ids, repeat_ids):
            assert (service.status(repeat_id)["result"]["cycles"]
                    == service.status(primary_id)["result"]["cycles"])
    finally:
        service.drain()


def test_non_default_harness_options_bypass_result_store():
    service = make_service().start()
    try:
        base = {"workload": "vvadd", "scale": 0.2, "config": "rocket"}
        first = service.submit_payload(base)
        wait_done(service, [first.record.id])
        distributed = service.submit_payload(
            dict(base, increment_mode="distributed"))
        assert distributed.record.state != "done"  # must execute
        wait_done(service, [distributed.record.id])
        assert service.metrics.counter("jobs_executed") == 2
    finally:
        service.drain()


# ----------------------------------------------------------------------
# Backpressure


def test_full_queue_rejection_carries_retry_after():
    # No dispatcher: submissions stay queued, so the bound is exact.
    service = make_service(workers=1, queue_capacity=2)
    accepted = [service.submit_payload(
        {"workload": w, "scale": 0.2, "config": "rocket"})
        for w in ("vvadd", "median")]
    assert all(r.accepted for r in accepted)
    rejected = service.submit_payload(
        {"workload": "mergesort", "scale": 0.2, "config": "rocket"})
    assert not rejected.accepted
    assert rejected.record.state == "rejected"
    assert rejected.retry_after > 0
    assert service.metrics.counter("jobs_rejected") == 1
    service.drain(timeout=0.1)


# ----------------------------------------------------------------------
# Graceful drain


def test_drain_with_in_flight_jobs_loses_nothing():
    service = make_service(workers=1).start()
    ids = []
    for workload in ("vvadd", "median", "mergesort", "qsort"):
        receipt = service.submit_payload(
            {"workload": workload, "scale": 0.2, "config": "rocket"})
        assert receipt.accepted
        ids.append(receipt.record.id)
    # Drain immediately: some jobs are queued, maybe one in flight.
    report = service.drain(timeout=60.0)
    assert report["state"] == "drained"
    assert report["persisted"] == 0
    states = [service.status(i)["state"] for i in ids]
    assert states == ["done"] * 4
    accepted = service.metrics.counter("jobs_accepted")
    completed = service.metrics.counter("jobs_completed")
    failed = service.metrics.counter("jobs_failed")
    assert accepted == completed + failed == 4


def test_drain_rejects_new_submissions():
    service = make_service().start()
    service.drain()
    receipt = service.submit_payload(
        {"workload": "vvadd", "scale": 0.2, "config": "rocket"})
    assert not receipt.accepted


def test_drain_persists_queued_jobs_and_resume_completes_them(tmp_path):
    # Service with no dispatcher: accepted jobs never start executing.
    service = make_service(workers=1, queue_capacity=8)
    ids = []
    for workload in ("vvadd", "median"):
        receipt = service.submit_payload(
            {"workload": workload, "scale": 0.2, "config": "rocket"})
        assert receipt.accepted
        ids.append(receipt.record.id)
    dupe = service.submit_payload(
        {"workload": "vvadd", "scale": 0.2, "config": "rocket",
         "client": "other"})
    assert dupe.deduped
    report = service.drain(timeout=0.2)
    # persisted counts accepted submissions (2 primaries + 1 follower),
    # so the zero-loss invariant holds exactly.
    assert report["persisted"] == 3
    accepted = service.metrics.counter("jobs_accepted")
    assert accepted == (service.metrics.counter("jobs_completed")
                        + service.metrics.counter("jobs_failed")
                        + report["persisted"])
    assert service.metrics.counter("jobs_persisted") == report["persisted"]
    assert service.store.pending_path().exists()
    # The pending file must not look like a cache entry: pruning the
    # cache to zero entries must leave it untouched.
    from repro.tools import cache

    assert cache.usage().entries == 0
    assert cache.prune(max_entries=0) == []
    assert service.store.pending_path().exists()
    # Every accepted record is terminal: done/failed or durably requeued.
    for job_id in ids + [dupe.record.id]:
        assert service.status(job_id)["state"] == "requeued"

    resumed = make_service(workers=1, executor="inline").start(resume=True)
    try:
        assert resumed.metrics.counter("jobs_resumed") == 2
        assert not resumed.store.pending_path().exists()
        deadline = time.time() + 60
        while resumed.metrics.counter("jobs_completed") < 2:
            assert time.time() < deadline
            time.sleep(0.02)
    finally:
        resumed.drain()


# ----------------------------------------------------------------------
# Bounded record retention


def test_finished_records_evicted_beyond_retention():
    service = make_service(workers=1, executor="inline",
                           record_retention=3).start()
    try:
        ids = []
        for workload in ("vvadd", "median", "mergesort", "qsort", "towers"):
            receipt = service.submit_payload(
                {"workload": workload, "scale": 0.1, "config": "rocket"})
            assert receipt.accepted
            ids.append(receipt.record.id)
        deadline = time.time() + 60
        while service.metrics.counter("jobs_completed") < 5:
            assert time.time() < deadline
            time.sleep(0.02)
        # Only the newest finished records are retained; the oldest
        # were evicted and now answer 404.
        assert len(service.records()) <= 3
        assert service.metrics.counter("records_evicted") >= 2
        assert service.status(ids[-1]) is not None
        assert service.status(ids[0]) is None
    finally:
        service.drain()


# ----------------------------------------------------------------------
# Worker-pool lifecycle: shutdown refusal + crash attribution


class _FakeExecutor:
    """Executor stub recording shutdowns; futures never complete."""

    def __init__(self):
        self.shut = False

    def submit(self, fn, *args, **kwargs):
        from concurrent.futures import Future

        return Future()

    def shutdown(self, wait=True, **_):
        self.shut = True


def _fake_pool():
    from repro.service.workers import WorkerPool

    created = []

    def factory(workers):
        executor = _FakeExecutor()
        created.append(executor)
        return executor

    return WorkerPool(workers=1, factory=factory), created


def _job():
    from repro.service import TMAJob

    return TMAJob(workload="vvadd", scale=0.2, config="rocket")


def test_worker_pool_refuses_submit_after_shutdown():
    pool, created = _fake_pool()
    pool.submit(_job())
    assert len(created) == 1
    pool.shutdown()
    with pytest.raises(RuntimeError):
        pool.submit(_job())
    assert len(created) == 1  # no executor resurrected after shutdown


def test_stale_crash_report_never_kills_rebuilt_executor():
    from concurrent.futures import BrokenExecutor

    pool, created = _fake_pool()
    stale = pool.submit(_job())  # from executor A
    assert pool.note_broken(BrokenExecutor("worker died"), stale)
    assert created[0].shut is True  # A torn down, pool rebuilt
    assert pool.rebuilds == 1
    pool.submit(_job())  # from executor B
    assert len(created) == 2
    # A late crash report for executor A must not tear down healthy B.
    assert pool.note_broken(BrokenExecutor("worker died"), stale)
    assert created[1].shut is False
    assert pool.rebuilds == 1
    pool.submit(_job())
    assert len(created) == 2  # B still current
    pool.shutdown()
    assert created[1].shut is True


# ----------------------------------------------------------------------
# Every job kind crosses a real process boundary


def _without_wall_times(document):
    if isinstance(document, dict):
        return {key: _without_wall_times(value)
                for key, value in document.items()
                if key not in ("wall_s", "window_wall_s")}
    if isinstance(document, list):
        return [_without_wall_times(value) for value in document]
    return document


def test_process_executor_runs_every_job_kind_like_inline():
    # The job objects themselves are shipped to pool workers, so each
    # kind must pickle and come back with the inline executor's result.
    jobs = [("job", {"workload": "vvadd", "scale": 0.2, "config": "rocket",
                     "use_cache": False}),
            ("job", {"workload": "median", "scale": 0.2, "config": "rocket",
                     "windows": 2, "sampled": True, "use_cache": False}),
            ("multicore", {"scenario": "noisy-neighbor", "scale": 0.1,
                           "use_cache": False})]
    results = {}
    for executor in ("inline", "process"):
        service = make_service(workers=2, executor=executor).start()
        try:
            ids = []
            for kind, payload in jobs:
                submit = (service.submit_multicore_payload
                          if kind == "multicore" else service.submit_payload)
                ids.append(submit(dict(payload)).record.id)
            assert wait_done(service, ids, timeout=120.0) == ["done"] * 3
            results[executor] = [
                _without_wall_times(service.status(i)["result"])
                for i in ids]
        finally:
            service.drain()
    assert results["process"] == results["inline"]
    assert results["process"][1]["sampled"] is True


# ----------------------------------------------------------------------
# Worker-crash recovery (real process pool)


def test_crashed_worker_requeues_job():
    # Every first execution in a pool worker draws a chaos kill; the
    # requeued run skips the seam, so the job still completes.
    with injector.active(ChaosPlan(worker_kill_rate=1.0)):
        service = TMAService(workers=1, executor="process",
                             queue_capacity=8).start()
        try:
            receipt = service.submit_payload(
                {"workload": "median", "scale": 0.1, "config": "rocket"})
            assert receipt.accepted
            wait_done(service, [receipt.record.id], timeout=120.0)
            payload = service.status(receipt.record.id)
            assert payload["state"] == "done"
            assert payload["requeues"] >= 1
            assert service.metrics.counter("worker_crashes") >= 1
            assert service.metrics.counter("jobs_requeued") >= 1
            assert service.pool.rebuilds >= 1
        finally:
            service.drain()


def test_repeated_crashes_fail_after_max_requeues():
    # A factory whose every submission dies like a broken pool.
    from concurrent.futures import BrokenExecutor, Future

    class AlwaysBroken:
        def submit(self, fn, *args, **kwargs):
            future = Future()
            future.set_exception(BrokenExecutor("worker died"))
            return future

        def shutdown(self, wait=True, **_):
            return None

    service = TMAService(workers=1, executor_factory=lambda n: AlwaysBroken(),
                         queue_capacity=8, max_requeues=2).start()
    try:
        receipt = service.submit_payload(
            {"workload": "vvadd", "scale": 0.2, "config": "rocket"})
        wait_done(service, [receipt.record.id], timeout=30.0)
        payload = service.status(receipt.record.id)
        assert payload["state"] == "failed"
        assert payload["requeues"] == 2
        assert "crashed" in payload["error"]
        assert service.metrics.counter("worker_crashes") == 3
    finally:
        service.drain(timeout=1.0)


# ----------------------------------------------------------------------
# HTTP API + client


def test_http_api_end_to_end():
    service = make_service().start()
    server, _thread = serve_in_thread(service)
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        receipt = client.submit("vvadd", scale=0.2, config="rocket",
                                client="http-test")
        assert receipt["id"].startswith("job-")
        record = client.wait(receipt["id"], timeout=60.0)
        assert record["state"] == "done"
        assert record["result"]["tma"]["dominant"]

        health = client.healthz()
        assert health["status"] == "ok"
        metrics = client.metrics()
        assert metrics["counters"]["jobs_completed"] >= 1
        assert "queue_depth" in metrics["gauges"]
        assert "job_latency_seconds" in metrics["histograms"]

        with pytest.raises(ServiceError) as excinfo:
            client.status("job-999999")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.submit("not-a-workload")
        assert excinfo.value.status == 400

        report = client.drain()
        assert report["state"] == "drained"
        assert client.healthz()["status"] == "drained"
    finally:
        server.shutdown()
        service.drain()


def test_http_backpressure_maps_to_429():
    service = make_service(workers=1, queue_capacity=1)  # not started
    server, _thread = serve_in_thread(service)
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        client.submit("vvadd", scale=0.2, config="rocket")
        with pytest.raises(JobRejected) as excinfo:
            client.submit("median", scale=0.2, config="rocket")
        assert excinfo.value.retry_after > 0
    finally:
        server.shutdown()
        service.drain(timeout=0.1)


# ----------------------------------------------------------------------
# Trace-memoization metrics


def test_trace_cache_metrics_surface_in_registry(monkeypatch):
    from repro.workloads import clear_caches

    clear_caches()
    service = make_service(workers=1, executor="inline").start()
    try:
        first = service.submit_payload(
            {"workload": "towers", "scale": 0.3, "config": "rocket",
             "use_cache": False})
        second = service.submit_payload(
            {"workload": "towers", "scale": 0.3, "config": "small-boom",
             "use_cache": False})
        wait_done(service, [first.record.id, second.record.id])
        snapshot = service.metrics_snapshot()
        counters = snapshot["counters"]
        assert counters.get("trace_cache_misses", 0) == 1
        hits = (counters.get("trace_cache_mem_hits", 0)
                + counters.get("trace_cache_disk_hits", 0))
        assert hits >= 1
        assert snapshot["gauges"]["trace_cache_hit_rate"] >= 0.5
    finally:
        service.drain()
