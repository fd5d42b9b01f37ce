#!/usr/bin/env python
"""Multi-node shard-cluster smoke (CI gate).

Boots three real shard server processes (``repro-tma serve
--shard-id``) sharing one result-store directory, fronts them with the
routing gateway over HTTP, then:

- pushes a duplicate-heavy burst (~80% duplicates) through the
  gateway;
- SIGKILLs one shard mid-drain — no warning, no graceful anything;
- asserts **zero job loss**: every accepted submission reaches a
  ``done`` record through eviction + re-routing;
- asserts **routing exactness**: each canonical job key is observed on
  exactly one live shard, and that shard is the survivor ring's owner;
- asserts **exact dedup**: live-shard executions never exceed the
  number of unique analyses;
- asserts **oracle identity**: every result document is bit-identical
  to a single-node service run in a separate, isolated store;
- streams one re-routed job's SSE lifecycle through the gateway relay
  and checks it ends with exactly one terminal event.

Exits non-zero on the first violated expectation.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request

WORKLOADS = ("vvadd", "median", "mergesort", "qsort")
CONFIGS = ("rocket", "small-boom")
SCALES = (0.1, 0.15, 0.2)
TOTAL_SUBMISSIONS = 120
SHARD_COUNT = 3


def fail(message):
    print(f"SHARD SMOKE FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(condition, message):
    if not condition:
        fail(message)
    print(f"  ok: {message}")


def start_shard(shard_id, cache_dir):
    env = dict(os.environ, REPRO_CACHE_DIR=cache_dir,
               PYTHONPATH="src", PYTHONUNBUFFERED="1")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.tools.cli", "serve",
         "--port", "0", "--shard-id", shard_id,
         "--executor", "thread", "--workers", "2",
         "--queue-size", "64"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=env)
    deadline = time.time() + 30
    banner = ""
    while time.time() < deadline:
        banner = process.stdout.readline()
        if "service on http://" in banner:
            break
    else:
        process.kill()
        fail(f"shard {shard_id} never printed its banner: {banner!r}")
    url = banner.split("service on ", 1)[1].split()[0]
    return process, url


def shard_records(url):
    with urllib.request.urlopen(f"{url}/admin/records",
                                timeout=10.0) as response:
        return json.load(response)["records"]


def shard_metrics(url):
    with urllib.request.urlopen(f"{url}/metrics",
                                timeout=10.0) as response:
        return json.load(response)


def main():
    cluster_cache = tempfile.mkdtemp(prefix="tma-shard-smoke-")
    oracle_cache = tempfile.mkdtemp(prefix="tma-shard-oracle-")
    os.environ["REPRO_CACHE_DIR"] = cluster_cache

    from repro.service import (Gateway, ServiceClient, TMAService,
                               serve_in_thread)
    from repro.service.job import TMAJob

    # -- boot the cluster --------------------------------------------------
    processes, urls = {}, {}
    for index in range(SHARD_COUNT):
        shard_id = f"s{index + 1}"
        processes[shard_id], urls[shard_id] = start_shard(
            shard_id, cluster_cache)
    print(f"cluster: {urls}")

    gateway = Gateway(
        ",".join(f"{sid}={url}" for sid, url in sorted(urls.items())),
        evict_threshold=2)
    gw_server, _thread = serve_in_thread(gateway)
    gw_url = f"http://127.0.0.1:{gw_server.server_address[1]}"
    client = ServiceClient(gw_url, timeout=30.0)
    check(client.healthz()["role"] == "gateway",
          f"gateway at {gw_url} fronts {SHARD_COUNT} shards")

    # -- duplicate-heavy burst --------------------------------------------
    unique = [(w, c, s) for w in WORKLOADS for c in CONFIGS
              for s in SCALES]
    burst = [unique[i % len(unique)] for i in range(TOTAL_SUBMISSIONS)]
    duplicates = TOTAL_SUBMISSIONS - len(unique)
    check(duplicates / TOTAL_SUBMISSIONS >= 0.5,
          f"burst is {100 * duplicates // TOTAL_SUBMISSIONS}% duplicates "
          f"({len(unique)} unique / {TOTAL_SUBMISSIONS} submissions)")
    receipts = []
    for workload, config, scale in burst:
        receipt = client.submit(workload, retries=20, config=config,
                                scale=scale)
        receipts.append(receipt)
    check(len(receipts) == TOTAL_SUBMISSIONS,
          f"gateway accepted all {TOTAL_SUBMISSIONS} submissions")

    # -- SIGKILL one shard mid-drain ---------------------------------------
    victim = receipts[0]["shard"]
    processes[victim].send_signal(signal.SIGKILL)
    processes[victim].wait(timeout=30)
    print(f"  killed shard {victim} (SIGKILL, mid-drain)")

    # -- zero loss: everything still completes -----------------------------
    results = {}
    lost = []
    for receipt in receipts:
        try:
            record = client.wait(receipt["id"], timeout=60.0,
                                 deadline=time.time() + 240.0)
        except Exception as exc:  # noqa: BLE001 - audited below
            lost.append((receipt["id"], str(exc)))
            continue
        if record.get("state") != "done":
            lost.append((receipt["id"], record.get("state")))
            continue
        results[receipt["id"]] = record["result"]
    check(not lost, f"zero job loss across SIGKILL ({len(results)}/"
                    f"{TOTAL_SUBMISSIONS} done; lost={lost[:3]})")
    check(victim not in gateway.clients and victim not in gateway.ring,
          f"dead shard {victim} was evicted from the ring")
    check(gateway.metrics.counter("jobs_rerouted") >= 1,
          f"{gateway.metrics.counter('jobs_rerouted')} routes re-homed")

    # -- routing exactness on the survivors --------------------------------
    expected_keys = {
        TMAJob.from_payload({"workload": w, "config": c,
                             "scale": s}).job_key()
        for w, c, s in unique}
    live = {sid: url for sid, url in urls.items() if sid != victim}
    owners = {}
    for shard_id, url in live.items():
        for record in shard_records(url):
            key = record["job_key"]
            if key not in expected_keys:
                continue
            previous = owners.setdefault(key, shard_id)
            if previous != shard_id:
                fail(f"job key {key} observed on both {previous} "
                     f"and {shard_id}")
            if gateway.ring.owner(key) != shard_id:
                fail(f"job key {key} on {shard_id}, but the ring "
                     f"owns it to {gateway.ring.owner(key)}")
    check(len(owners) >= 1, f"{len(owners)} unique keys audited on "
                            f"live shards, all disjoint + ring-placed")

    # -- exact dedup: executions never exceed unique analyses --------------
    executed = sum(
        shard_metrics(url)["counters"].get("jobs_executed", 0)
        for url in live.values())
    check(executed <= len(unique),
          f"live shards executed {executed} <= {len(unique)} unique "
          f"analyses (dedup + store held under reroute)")

    # -- SSE relay across the reroute --------------------------------------
    streamed_id = next((r["id"] for r in receipts
                        if r["shard"] == victim), receipts[0]["id"])
    events = list(client.stream(streamed_id))
    terminals = [e for e in events if e["event"] == "done"]
    check(len(terminals) == 1 and events[-1]["event"] == "done",
          f"gateway SSE relay for {streamed_id}: "
          f"{len(events)} events, exactly one terminal")

    # -- oracle identity ---------------------------------------------------
    os.environ["REPRO_CACHE_DIR"] = oracle_cache
    oracle = TMAService(workers=2, executor="thread",
                        queue_capacity=64).start()
    oracle_results = {}
    try:
        pending = {}
        for workload, config, scale in unique:
            receipt = oracle.submit_payload(
                {"workload": workload, "config": config, "scale": scale})
            key = TMAJob.from_payload(
                {"workload": workload, "config": config,
                 "scale": scale}).job_key()
            pending[receipt.record.id] = key
        deadline = time.time() + 240.0
        while pending and time.time() < deadline:
            for record_id in list(pending):
                record = oracle.status(record_id)
                if record and record["state"] == "done":
                    oracle_results[pending.pop(record_id)] = (
                        record["result"])
                elif record and record["state"] not in (
                        "queued", "running"):
                    fail(f"oracle job {record_id} ended "
                         f"{record['state']}")
            time.sleep(0.05)
        check(not pending, "single-node oracle completed all unique jobs")
    finally:
        oracle.drain()

    def canonical(result):
        return {key: value for key, value in result.items()
                if key not in ("from_cache", "attempts")}

    mismatched = 0
    for receipt, (workload, config, scale) in zip(receipts, burst):
        key = TMAJob.from_payload(
            {"workload": workload, "config": config,
             "scale": scale}).job_key()
        if canonical(results[receipt["id"]]) != canonical(
                oracle_results[key]):
            mismatched += 1
    check(mismatched == 0,
          f"all {len(results)} routed results bit-identical to the "
          f"single-node oracle")

    # -- teardown ----------------------------------------------------------
    gw_server.shutdown()
    for shard_id, process in processes.items():
        if shard_id == victim:
            continue
        process.send_signal(signal.SIGTERM)
    for shard_id, process in processes.items():
        if shard_id == victim:
            continue
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
    print("SHARD SMOKE PASS")


if __name__ == "__main__":
    main()
