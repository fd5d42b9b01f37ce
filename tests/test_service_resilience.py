"""Resilience tests: WorkerPool crash storms, ServiceClient retries.

Satellites of the chaos PR: the pool must rebuild exactly once per
broken executor no matter how many threads report the same crash, and
the HTTP client must retry idempotent requests (only) through the
shared RetryPolicy, honouring the server's backpressure hints.
"""

import threading
from concurrent.futures import BrokenExecutor, Future

import pytest

from repro.chaos import injector
from repro.chaos.plan import ChaosPlan
from repro.reliability import RetryPolicy
from repro.service.client import JobRejected, ServiceClient, ServiceError
from repro.service.workers import WorkerPool


@pytest.fixture(autouse=True)
def chaos_off():
    injector.deactivate()
    injector.reset_counters()
    yield
    injector.deactivate()
    injector.reset_counters()


# ---------------------------------------------------------------------------
# WorkerPool under a crash storm
# ---------------------------------------------------------------------------

class _Executor:
    """Fake executor: optionally broken at submission time."""

    def __init__(self, broken=False):
        self.broken = broken
        self.shut = False
        self.submissions = 0

    def submit(self, fn, *args, **kwargs):
        self.submissions += 1
        if self.broken:
            raise BrokenExecutor("worker died while idle")
        future = Future()
        future.set_result("ok")
        return future

    def shutdown(self, wait=True, **_):
        self.shut = True


def _storm_pool(broken_count, max_attempts):
    created = []

    def factory(workers):
        executor = _Executor(broken=len(created) < broken_count)
        created.append(executor)
        return executor

    pool = WorkerPool(
        workers=1, factory=factory,
        retry_policy=RetryPolicy(max_attempts=max_attempts, base_delay=0.0))
    return pool, created


def _job():
    from repro.service import TMAJob

    return TMAJob(workload="vvadd", scale=0.2, config="rocket")


def test_submit_retries_through_broken_executors_one_rebuild_each():
    pool, created = _storm_pool(broken_count=3, max_attempts=4)
    future = pool.submit(_job())
    assert future.result() == "ok"
    # Three broken executors burned three attempts; each was rebuilt
    # exactly once, and the fourth executor served the job.
    assert pool.rebuilds == 3
    assert len(created) == 4
    assert all(executor.shut for executor in created[:3])
    assert created[3].shut is False
    pool.shutdown()


def test_submit_exhausts_retry_policy_and_raises():
    pool, created = _storm_pool(broken_count=10, max_attempts=2)
    with pytest.raises(BrokenExecutor):
        pool.submit(_job())
    assert pool.rebuilds == 2
    assert len(created) == 2
    pool.shutdown()


def test_concurrent_crash_reports_cause_exactly_one_rebuild():
    pool, created = _storm_pool(broken_count=0, max_attempts=2)
    future = pool.submit(_job())
    barrier = threading.Barrier(8)
    verdicts = []

    def report():
        barrier.wait()
        verdicts.append(
            pool.note_broken(BrokenExecutor("worker died"), future))

    threads = [threading.Thread(target=report) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    # Every report classified the failure as a crash, but the identity
    # check collapsed the storm into a single rebuild.
    assert verdicts == [True] * 8
    assert pool.rebuilds == 1
    assert created[0].shut is True
    pool.submit(_job())
    assert len(created) == 2
    pool.shutdown()


# ---------------------------------------------------------------------------
# ServiceClient transport retries
# ---------------------------------------------------------------------------

#: Nothing listens here: connections are refused immediately.
DEAD_URL = "http://127.0.0.1:1"


def test_idempotent_get_is_retried_on_connection_errors():
    client = ServiceClient(
        DEAD_URL, timeout=0.5,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0))
    with pytest.raises(ServiceError) as excinfo:
        client.metrics()
    assert excinfo.value.status == 0
    # All three policy attempts hit the wire.
    assert client._request_sequence == 3


def test_submission_is_not_retried_on_connection_errors():
    client = ServiceClient(
        DEAD_URL, timeout=0.5,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0))
    with pytest.raises(ServiceError) as excinfo:
        client.submit("vvadd", config="rocket", scale=0.1)
    assert excinfo.value.status == 0
    # The job may have been accepted before the connection died, so
    # exactly one wire attempt is allowed.
    assert client._request_sequence == 1


def test_drain_is_retried_like_a_get():
    client = ServiceClient(
        DEAD_URL, timeout=0.5,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0))
    with pytest.raises(ServiceError):
        client.drain()
    assert client._request_sequence == 2


def test_chaos_connection_faults_exhaust_the_policy_without_a_server():
    # With every request chaos-refused, the client never even reaches
    # the (dead) socket — and the retry loop still stays bounded.
    plan = ChaosPlan(seed=2, client_fault_rate=1.0)
    client = ServiceClient(
        DEAD_URL, timeout=0.5,
        retry_policy=RetryPolicy(max_attempts=4, base_delay=0.0))
    with injector.active(plan):
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
    assert excinfo.value.status == 0
    assert client._request_sequence == 4
    faults = injector.counters()
    assert sum(count for name, count in faults.items()
               if name.startswith("client_")) >= 1


def test_submit_retries_429_honouring_retry_after(monkeypatch):
    client = ServiceClient(
        "http://unused", retry_policy=RetryPolicy(max_attempts=3,
                                                  base_delay=0.0))
    rejections = [JobRejected(429, {"error": "queue full",
                                    "retry_after": 0.75})] * 2
    calls = []

    def fake_request(method, path, body=None, idempotent=None):
        calls.append((method, path))
        if rejections:
            raise rejections.pop(0)
        return {"id": "job-1", "state": "queued"}

    sleeps = []
    monkeypatch.setattr(client, "_request", fake_request)
    monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)

    receipt = client.submit("vvadd", retries=5, config="rocket")
    assert receipt["id"] == "job-1"
    assert len(calls) == 3
    # Each pause honoured the server's hint (capped at 2s).
    assert sleeps == [0.75, 0.75]


def test_submit_gives_up_when_retry_budget_is_exhausted(monkeypatch):
    client = ServiceClient("http://unused")

    def always_rejected(method, path, body=None, idempotent=None):
        raise JobRejected(429, {"error": "queue full", "retry_after": 0.01})

    monkeypatch.setattr(client, "_request", always_rejected)
    monkeypatch.setattr("repro.service.client.time.sleep", lambda _s: None)
    with pytest.raises(JobRejected):
        client.submit("vvadd", retries=2, config="rocket")


def test_wait_treats_quarantined_as_terminal(monkeypatch):
    client = ServiceClient("http://unused")
    monkeypatch.setattr(
        client, "status",
        lambda job_id: {"state": "quarantined", "id": job_id})
    record = client.wait("job-9", timeout=1.0)
    assert record["state"] == "quarantined"
