"""Multi-node service tier tests: shards and the gateway.

Covers the tentpole guarantees with a real in-process cluster (three
shard servers on loopback HTTP sharing one result store):

- routing exactness — each canonical job key lands on exactly the
  shard the ring assigns, so cluster-wide dedup is the single-node
  dedup;
- grid fan-out — a ``POST /grids`` splits into per-shard sub-grids
  whose points route by their *point job's* key;
- failure handling — a submission whose ring owner is already dead
  lands on the next owner in failover order, and a dead shard is
  evicted after repeated transport failures and its routes re-home
  with zero loss.

The gateway is the one path by which jobs reach a cluster;
``scripts/shard_smoke.py`` gates its results bit-identical to a
single-node oracle.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.service import (Gateway, ServiceClient, make_shard_service,
                           serve_in_thread)
from repro.service.hashring import HashRing, ring_position
from repro.service.job import TMAJob
from repro.service.shard import ShardInfo


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cluster"))
    yield tmp_path


class Cluster:
    """N shard servers on loopback, sharing the process cache dir."""

    def __init__(self, count: int, workers: int = 1):
        self.services = {}
        self.servers = {}
        self.urls = {}
        for index in range(count):
            shard_id = f"s{index + 1}"
            service = make_shard_service(
                shard_id, workers=workers, executor="thread",
                queue_capacity=64).start()
            server, _thread = serve_in_thread(service)
            self.services[shard_id] = service
            self.servers[shard_id] = server
            self.urls[shard_id] = (
                f"http://127.0.0.1:{server.server_address[1]}")

    def spec(self) -> str:
        return ",".join(f"{shard_id}={url}"
                        for shard_id, url in sorted(self.urls.items()))

    def kill(self, shard_id: str) -> None:
        """Make the shard unreachable (connection refused)."""
        self.servers[shard_id].shutdown()
        self.servers[shard_id].server_close()

    def settle(self, timeout: float = 120.0) -> None:
        """Wait until no shard has queued or in-flight work."""
        deadline = time.time() + timeout
        while time.time() < deadline:
            busy = any(service.scheduler.queue_depth or service.in_flight
                       for service in self.services.values())
            if not busy:
                return
            time.sleep(0.05)
        raise TimeoutError("cluster did not settle")

    def stop(self) -> None:
        for shard_id, server in self.servers.items():
            try:
                server.shutdown()
                server.server_close()
            except OSError:
                pass
        for service in self.services.values():
            service.drain()


@pytest.fixture
def cluster():
    built = Cluster(3)
    yield built
    built.stop()


def wait_status(gateway, gateway_id, timeout=120.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        payload = gateway.status(gateway_id)
        assert payload is not None
        if payload.get("state") in ("done", "failed", "quarantined"):
            return payload
        time.sleep(0.05)
    raise TimeoutError(f"{gateway_id} never finished")


# ----------------------------------------------------------------------
# Shard identity


def test_shard_healthz_reports_identity_and_ring_position(cluster):
    for shard_id, url in cluster.urls.items():
        health = ServiceClient(url).healthz()
        assert health["status"] == "ok"
        assert health["version"]
        assert health["executor"] == "thread"
        assert health["shard"]["id"] == shard_id
        assert health["shard"]["ring_position"] == ring_position(shard_id)


def test_shard_info_rejects_unsafe_ids():
    assert ShardInfo("a.b-c_9").id == "a.b-c_9"
    with pytest.raises(ValueError):
        ShardInfo("a/b")
    with pytest.raises(ValueError):
        ShardInfo("")


# ----------------------------------------------------------------------
# Gateway routing exactness


def test_gateway_routes_match_ring_assignment_exactly(cluster):
    gateway = Gateway(cluster.spec())
    payloads = [{"workload": "vvadd", "config": "rocket",
                 "scale": round(0.1 + 0.05 * i, 2)} for i in range(6)]
    receipts = [gateway.submit_payload(payload) for payload in payloads]
    for receipt in receipts:
        assert wait_status(gateway, receipt["id"])["state"] == "done"
    ring = HashRing(cluster.urls)
    expected_keys = {
        TMAJob.from_payload(payload).job_key() for payload in payloads}
    seen = {}
    for shard_id, service in cluster.services.items():
        for record in service.records():
            if record.job_key not in expected_keys:
                continue
            # Exactness: a key never appears on two shards...
            assert seen.setdefault(record.job_key, shard_id) == shard_id
            # ...and the shard it appears on is the ring owner.
            assert ring.owner(record.job_key) == shard_id
    assert set(seen) == expected_keys
    # Receipts agree with shard-side reality.
    for payload, receipt in zip(payloads, receipts):
        key = TMAJob.from_payload(payload).job_key()
        assert receipt["shard"] == seen[key]
        assert receipt["id"] == f"{seen[key]}:{receipt['id'].split(':')[1]}"


def test_gateway_duplicate_submissions_converge_on_one_shard(cluster):
    gateway = Gateway(cluster.spec())
    payload = {"workload": "median", "config": "rocket", "scale": 0.2}
    first = gateway.submit_payload(payload)
    second = gateway.submit_payload(payload)
    assert first["shard"] == second["shard"]
    assert wait_status(gateway, first["id"])["state"] == "done"
    assert wait_status(gateway, second["id"])["state"] == "done"
    key = TMAJob.from_payload(payload).job_key()
    owners = {shard_id for shard_id, service in cluster.services.items()
              if any(r.job_key == key for r in service.records())}
    assert owners == {first["shard"]}
    # One execution total: the duplicate coalesced or cache-hit.
    executed = sum(service.metrics.counter("jobs_executed")
                   for service in cluster.services.values())
    assert executed == 1


def test_gateway_unknown_job_and_status_passthrough(cluster):
    gateway = Gateway(cluster.spec())
    assert gateway.status("s1:job-999999") is None
    assert gateway.status("nope:job-1") is None
    receipt = gateway.submit_payload(
        {"workload": "towers", "config": "rocket", "scale": 0.2})
    record = wait_status(gateway, receipt["id"])
    assert record["id"] == receipt["id"]
    assert record["shard"] == receipt["shard"]
    assert record["result"]["tma"]["dominant"]


# ----------------------------------------------------------------------
# Grid fan-out


def test_gateway_grid_fans_out_by_point_job_key(cluster):
    gateway = Gateway(cluster.spec())
    payload = {"workload": "vvadd", "grid": "rocket,small-boom,large-boom",
               "vary": [], "scale": 0.2}
    receipt = gateway.submit_grid_payload(payload)
    assert receipt["points"] == 3
    deadline = time.time() + 120.0
    while time.time() < deadline:
        status = gateway.grid_status(receipt["id"])
        if status["state"] == "done":
            break
        time.sleep(0.05)
    assert status["state"] == "done"
    assert set(status["points"]) == {"rocket", "small-boom", "large-boom"}
    ring = HashRing(cluster.urls)
    template = {"workload": "vvadd", "scale": 0.2}
    for point_key, entry in status["points"].items():
        assert entry["state"] == "done"
        assert entry["result"]["tma"]["dominant"]
        job = TMAJob.from_payload(dict(template, config=point_key))
        # Fan-out placed each point exactly where a direct POST /jobs
        # of the same analysis would land.
        assert entry["shard"] == ring.owner(job.job_key())


def test_grid_points_dedup_against_direct_submissions(cluster):
    gateway = Gateway(cluster.spec())
    direct = gateway.submit_payload(
        {"workload": "vvadd", "config": "rocket", "scale": 0.2})
    wait_status(gateway, direct["id"])
    receipt = gateway.submit_grid_payload(
        {"workload": "vvadd", "grid": "rocket,small-boom", "vary": [],
         "scale": 0.2})
    deadline = time.time() + 120.0
    while time.time() < deadline:
        status = gateway.grid_status(receipt["id"])
        if status["state"] == "done":
            break
        time.sleep(0.05)
    assert status["state"] == "done"
    # The grid's rocket point landed on the same shard as the direct
    # submission (same canonical key), and was served without a second
    # execution.
    assert status["points"]["rocket"]["shard"] == direct["shard"]
    service = cluster.services[direct["shard"]]
    key = TMAJob.from_payload({"workload": "vvadd", "config": "rocket",
                               "scale": 0.2}).job_key()
    executions = service.metrics.counter("jobs_executed")
    owners_records = [r for r in service.records() if r.job_key == key]
    assert owners_records
    assert executions <= 3  # rocket ran once, not once per submission


# ----------------------------------------------------------------------
# Failure handling: eviction + re-routing, zero loss


def test_gateway_submit_walks_failover_order_past_dead_owner(cluster):
    payload = {"workload": "vvadd", "config": "rocket", "scale": 0.1}
    key = TMAJob.from_payload(payload).job_key()
    # owners() lists distinct shards: the owner, then its successor.
    owner, successor = HashRing(cluster.urls).owners(key, 2)
    cluster.kill(owner)
    gateway = Gateway(cluster.spec())
    receipt = gateway.submit_payload(payload)
    assert receipt["shard"] == successor
    assert wait_status(gateway, receipt["id"])["state"] == "done"


def test_dead_shard_is_evicted_and_routes_rehome_with_zero_loss(cluster):
    gateway = Gateway(cluster.spec(), evict_threshold=2)
    payloads = [{"workload": "vvadd", "config": "rocket",
                 "scale": round(0.1 + 0.05 * i, 2)} for i in range(6)]
    receipts = [gateway.submit_payload(payload) for payload in payloads]
    cluster.settle()
    # Kill the shard that owns the first route — without ever polling,
    # so every route on it is still non-terminal gateway-side.
    victim = receipts[0]["shard"]
    cluster.kill(victim)
    results = {}
    for receipt in receipts:
        record = wait_status(gateway, receipt["id"])
        assert record["state"] == "done", f"lost {receipt['id']}"
        results[receipt["id"]] = record["result"]
    # The victim is gone from the ring and its routes re-homed.
    assert victim not in gateway.clients
    assert victim not in gateway.ring
    assert gateway.metrics.counter("shard_evictions") == 1
    assert gateway.metrics.counter("jobs_rerouted") >= 1
    # Zero loss and exactness: every result document is complete.
    for result in results.values():
        assert result["status"] == "ok"
        assert result["tma"]["dominant"]


def post_json(url, path, body):
    """POST *body* as JSON; returns (status, decoded response body)."""
    request = urllib.request.Request(
        url + path, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture
def served_gateway(cluster):
    """A gateway over *cluster* and the URL it is served on."""
    gateway = Gateway(cluster.spec())
    server, _thread = serve_in_thread(gateway)
    yield gateway, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def test_leave_drains_and_adopts_pending_manifest(served_gateway):
    gateway, url = served_gateway
    receipt = gateway.submit_payload(
        {"workload": "median", "config": "rocket", "scale": 0.25})
    wait_status(gateway, receipt["id"])
    victim = receipt["shard"]
    status, report = post_json(url, "/admin/leave", {"id": victim})
    assert status == 200
    assert victim not in gateway.clients
    assert report["drain"]["state"] in ("drained", "draining")
    assert victim not in report["shards"]
    # The departed shard's completed work is still servable: the route
    # re-homed and the shared store answers on the new owner.
    record = wait_status(gateway, receipt["id"])
    assert record["state"] == "done"
    assert record["shard"] != victim


def test_join_extends_the_ring_for_future_submissions(cluster,
                                                      served_gateway):
    gateway, gateway_url = served_gateway
    joiner = make_shard_service("s9", workers=1, executor="thread",
                                queue_capacity=64).start()
    server, _thread = serve_in_thread(joiner)
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        join = {"id": "s9", "url": url}
        status, topology = post_json(gateway_url, "/admin/join", join)
        assert status == 200
        assert "s9" in topology["shards"]
        assert "s9" in gateway.ring
        # A double join is a validation error.
        assert post_json(gateway_url, "/admin/join", join)[0] == 400
        # A key owned by the joiner routes there now.
        ring = HashRing(dict(cluster.urls, s9=url))
        for i in range(64):
            payload = {"workload": "towers", "config": "rocket",
                       "scale": round(0.1 + 0.01 * i, 2)}
            key = TMAJob.from_payload(payload).job_key()
            if ring.owner(key) == "s9":
                receipt = gateway.submit_payload(payload)
                assert receipt["shard"] == "s9"
                assert wait_status(gateway,
                                   receipt["id"])["state"] == "done"
                break
        else:
            pytest.fail("no probe key landed on the joiner")
    finally:
        server.shutdown()
        server.server_close()
        joiner.drain()


@pytest.mark.parametrize("action,body", [
    ("join", {"url": "http://127.0.0.1:9"}),
    ("join", {"id": "s9"}),
    ("leave", {}),
    ("evict", {"shard_id": "s1"}),
])
def test_admin_membership_requires_id(served_gateway, action, body):
    gateway, url = served_gateway
    status, payload = post_json(url, f"/admin/{action}", body)
    assert status == 400
    assert "requires 'id'" in payload["error"]
    assert sorted(gateway.clients) == ["s1", "s2", "s3"]


# ----------------------------------------------------------------------
# Cluster observability


def test_gateway_healthz_and_metrics_rollup(cluster):
    gateway = Gateway(cluster.spec())
    receipt = gateway.submit_payload(
        {"workload": "vvadd", "config": "rocket", "scale": 0.2})
    wait_status(gateway, receipt["id"])
    health = gateway.healthz()
    assert health["role"] == "gateway"
    assert set(health["shards"]) == set(cluster.urls)
    for shard_id, entry in health["shards"].items():
        assert entry["shard"]["id"] == shard_id
    snapshot = gateway.metrics_snapshot()
    assert snapshot["gateway"]["counters"]["routed_jobs"] == 1
    # The cluster rollup sums per-shard counters.
    assert snapshot["cluster"]["counters"]["jobs_completed"] == sum(
        s.metrics.counter("jobs_completed")
        for s in cluster.services.values())
    assert set(snapshot["shards"]) == set(cluster.urls)
