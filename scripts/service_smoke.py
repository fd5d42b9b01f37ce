#!/usr/bin/env python
"""End-to-end smoke of the TMA analysis service (CI gate).

Boots the HTTP service in-process, pushes a duplicate-heavy burst of
jobs through a deliberately small admission queue (so backpressure and
retry-after actually fire), polls everything to completion, then drains
and audits the books:

- >= 200 submissions, >= 50% duplicates, all complete;
- every duplicate was served without re-execution (in-flight dedup or
  the O(1) result store) — executions == unique jobs;
- /metrics reports queue depth, dedup hits, and p50/p99 job latency;
- windowed (exact and sampled) and multicore jobs complete, and each
  repeat is served without an execution with the executed result
  document, the ``sampled`` label included;
- graceful drain: /healthz reports drained, zero accepted-but-lost.

Exits non-zero on the first violated expectation.
"""

import os
import sys
import tempfile
import time

TOTAL_SUBMISSIONS = 220
WORKLOADS = ("vvadd", "median", "mergesort", "qsort", "towers", "spmv")
CONFIGS = ("rocket", "small-boom")
SCALES = (0.1, 0.15)
QUEUE_CAPACITY = 16
WORKERS = 4
#: Every other job kind: (route, body).  Each runs once, then repeats.
OTHER_KINDS = (
    ("jobs", {"workload": "median", "config": "rocket", "scale": 0.1,
              "windows": 2}),
    ("jobs", {"workload": "median", "config": "rocket", "scale": 0.1,
              "windows": 2, "sampled": True}),
    ("multicore", {"scenario": "noisy-neighbor", "scale": 0.1}),
)
PROVENANCE = ("attempts", "from_cache")


def fail(message):
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(condition, message):
    if not condition:
        fail(message)
    print(f"  ok: {message}")


def submit_and_wait(client, route, body):
    body = dict(body)
    if route == "multicore":
        receipt = client.submit_multicore(body.pop("scenario"), retries=50,
                                          **body)
    else:
        receipt = client.submit(body.pop("workload"), retries=50, **body)
    return client.wait(receipt["id"], timeout=300.0)


def check_repeat_served(client, route, body):
    """One job kind: it runs once, and its repeat is a store hit with
    the executed result document."""
    executed_before = client.metrics()["counters"]["jobs_executed"]
    first = submit_and_wait(client, route, body)
    check(first["state"] == "done", f"{route} {body} completed")
    repeat = submit_and_wait(client, route, body)
    executed = client.metrics()["counters"]["jobs_executed"]
    check(repeat["state"] == "done" and repeat["result"]["from_cache"]
          and executed == executed_before + 1,
          f"{route} {body} repeat served without an execution")
    if body.get("windows"):
        check(repeat["result"]["sampled"] is bool(body.get("sampled")),
              f"served sampled label is {bool(body.get('sampled'))}")
    stripped = [{key: value for key, value in record["result"].items()
                 if key not in PROVENANCE} for record in (first, repeat)]
    check(stripped[0] == stripped[1],
          "served result equals the executed one")


def main():
    os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="tma-smoke-")
    from repro.service import JobRejected, ServiceClient, TMAService, \
        serve_in_thread
    from repro.workloads import workload_names

    grid = [(w, c, s) for w in WORKLOADS for c in CONFIGS for s in SCALES]
    unique = len(grid)
    assert all(w in workload_names() for w in WORKLOADS)
    duplicates = TOTAL_SUBMISSIONS - unique
    check(duplicates / TOTAL_SUBMISSIONS >= 0.5,
          f"submission stream is {100 * duplicates // TOTAL_SUBMISSIONS}% "
          f"duplicates ({unique} unique / {TOTAL_SUBMISSIONS} submissions)")

    service = TMAService(workers=WORKERS, queue_capacity=QUEUE_CAPACITY,
                         executor="thread").start()
    server, _thread = serve_in_thread(service)
    client = ServiceClient(
        f"http://127.0.0.1:{server.server_address[1]}", timeout=30.0)

    started = time.time()
    job_ids = []
    retries_taken = 0
    for index in range(TOTAL_SUBMISSIONS):
        # Duplicates arrive in adjacent bursts of 3, so coalescing hits
        # queued/running primaries (in-flight dedup), while later full
        # passes over the grid land on the O(1) result store instead.
        workload, config, scale = grid[(index // 3) % unique]
        while True:
            try:
                receipt = client.submit(workload, config=config, scale=scale,
                                        client=f"client-{index % 7}")
                job_ids.append(receipt["id"])
                break
            except JobRejected as rejected:
                retries_taken += 1
                if retries_taken > 2000:
                    fail("backpressure never relieved after 2000 retries")
                time.sleep(min(rejected.retry_after, 0.25))
    print(f"submitted {len(job_ids)} jobs "
          f"({retries_taken} backpressure retries) "
          f"in {time.time() - started:.1f}s")

    deadline = time.time() + 300
    pending = set(job_ids)
    while pending:
        if time.time() > deadline:
            fail(f"{len(pending)} jobs never finished")
        done = {job_id for job_id in pending
                if client.status(job_id)["state"] in ("done", "failed")}
        pending -= done
        if pending:
            time.sleep(0.1)

    failed = [job_id for job_id in job_ids
              if client.status(job_id)["state"] != "done"]
    check(not failed, f"all {len(job_ids)} jobs completed "
                      f"(failed: {failed[:5]})")

    metrics = client.metrics()
    counters = metrics["counters"]
    check(counters["jobs_accepted"] == TOTAL_SUBMISSIONS,
          f"accepted == {TOTAL_SUBMISSIONS}")
    check(counters.get("dedup_hits", 0) > 0,
          f"in-flight dedup fired ({counters.get('dedup_hits', 0)} hits)")
    served_without_execution = (counters.get("dedup_hits", 0)
                                + counters.get("cache_hits", 0))
    check(served_without_execution == duplicates,
          f"every duplicate served without re-execution "
          f"(dedup {counters.get('dedup_hits', 0)} + cache "
          f"{counters.get('cache_hits', 0)} == {duplicates})")
    check(counters["jobs_executed"] == unique,
          f"exactly {unique} executions for {unique} unique jobs")
    check("queue_depth" in metrics["gauges"], "queue_depth gauge reported")
    latency = metrics["histograms"].get("job_latency_seconds", {})
    check(latency.get("count", 0) >= TOTAL_SUBMISSIONS,
          "latency histogram observed every completion")
    check(latency.get("p50", 0) > 0 and latency.get("p99", 0) > 0,
          f"p50={latency.get('p50')}s p99={latency.get('p99')}s reported")
    check(counters.get("jobs_rejected", 0) == retries_taken,
          f"each retry maps to one 429 rejection ({retries_taken})")

    for route, body in OTHER_KINDS:
        check_repeat_served(client, route, body)
    counters = client.metrics()["counters"]

    report = client.drain()
    check(report["state"] == "drained", "drain completed")
    health = client.healthz()
    check(health["status"] == "drained", "/healthz reports a clean drain")
    check(health["queue_depth"] == 0 and health["in_flight"] == 0,
          "nothing queued or in flight after drain")
    lost = (counters["jobs_accepted"]
            - report["completed"] - report["failed"] - report["persisted"])
    check(lost == 0, "zero accepted-but-lost jobs "
                     f"(accepted {counters['jobs_accepted']} = "
                     f"completed {report['completed']} + failed "
                     f"{report['failed']} + persisted {report['persisted']})")

    server.shutdown()
    print(f"\nSMOKE PASS in {time.time() - started:.1f}s — "
          f"{TOTAL_SUBMISSIONS} jobs, {unique} executions, "
          f"p50={latency['p50']}s p99={latency['p99']}s")


if __name__ == "__main__":
    main()
