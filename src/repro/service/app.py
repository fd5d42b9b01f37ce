"""`TMAService`: the queue-driven analysis service facade.

Wires the subsystem together — admission through
:class:`~repro.service.scheduler.JobScheduler`, O(1) repeat-request
serving through :class:`~repro.service.store.ResultStore`, execution
through :class:`~repro.service.workers.WorkerPool`, observability
through :class:`~repro.service.metrics.MetricsRegistry` — behind a
small, thread-safe API the HTTP layer (and tests) call directly:

``submit`` / ``status`` / ``metrics_snapshot`` / ``healthz`` /
``drain``.

Lifecycle: a single dispatcher thread pulls primaries off the
scheduler only when a worker slot is free (so queue depth and
backpressure stay meaningful — the executor's internal queue is never
used as a second, unbounded buffer), submits them to the pool, and
resolves completions:

- success → result payload fans out to the primary and every coalesced
  follower (one execution, N completions);
- job-level failure → the failure fans out the same way;
- worker crash → the pool is rebuilt and the job re-queued at the
  front (bounded by ``max_requeues``), with the crash test hook
  disabled for the retry.

``drain()`` closes admission, lets in-flight work finish, and
persists any still-queued accepted jobs to disk via the result store —
accepted jobs either complete or are durably re-queued; none are
silently lost.  ``start(resume=True)`` resubmits persisted jobs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from .. import __version__
from ..reliability.breaker import CircuitBreaker
from .job import (DEFAULT_PRIORITY, MAX_PRIORITY, GridJob, JobRecord,
                  JobValidationError, MulticoreJob, TMAJob, outcome_payload)
from .metrics import MetricsRegistry
from .scheduler import JobScheduler, SubmitReceipt
from .store import ResultStore
from .stream import EventJournal
from .workers import WorkerPool

#: Fallback retry-after hint before any latency samples exist.
_DEFAULT_RETRY_AFTER = 1.0

#: States whose records may be evicted once ``record_retention`` is
#: exceeded — nothing further will ever happen to them.
_TERMINAL_RECORD_STATES = frozenset(("done", "failed", "rejected",
                                     "requeued", "quarantined"))

#: Default bound on retained job records (live records never count
#: against it — they are already bounded by queue capacity).
DEFAULT_RECORD_RETENTION = 4096

#: Bound on retained grid records (each is a thin index over job
#: records, which carry the actual results and have their own bound).
DEFAULT_GRID_RETENTION = 512


@dataclass
class GridRecord:
    """Service-side index of one fanned-out grid submission.

    A grid record owns no results — it maps canonical grid point keys
    to the job records that do, so grid status is an aggregation over
    the normal per-job lifecycle.
    """

    id: str
    key: str
    workload: str
    scale: float
    client: str
    point_keys: List[str]
    point_record_ids: Dict[str, str]
    accepted: bool
    submitted_at: float = field(default_factory=time.time)
    #: Grid id of the earlier submission with the same canonical grid
    #: key, when one exists (grid-level dedup accounting).
    coalesced_with: Optional[str] = None


class TMAService:
    """The long-running, queue-driven TMA analysis service."""

    def __init__(self,
                 workers: int = 2,
                 queue_capacity: int = 256,
                 executor: str = "process",
                 executor_factory=None,
                 max_requeues: int = 2,
                 record_retention: int = DEFAULT_RECORD_RETENTION,
                 metrics: Optional[MetricsRegistry] = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 30.0,
                 shard=None) -> None:
        if record_retention < 1:
            raise ValueError("record_retention must be >= 1")
        #: Shard identity (:class:`repro.service.shard.ShardInfo`) when
        #: this instance serves one consistent-hash slice of the job-key
        #: space; None for a plain single-node deployment.  Shards get
        #: a per-shard drain-persistence file so clusters sharing one
        #: cache directory never clobber each other's pending jobs.
        self.shard = shard
        self.metrics = metrics or MetricsRegistry()
        self.scheduler = JobScheduler(capacity=queue_capacity)
        self.store = ResultStore(
            instance=shard.id if shard is not None else None)
        self.events = EventJournal()
        self.pool = WorkerPool(workers=workers, style=executor,
                               factory=executor_factory)
        #: Per-(workload, config) circuit breaker: a pair that keeps
        #: failing trips open, and jobs for it resolve ``quarantined``
        #: without burning a worker slot until the cooldown admits a
        #: half-open probe.
        self.breaker = CircuitBreaker(failure_threshold=breaker_threshold,
                                      cooldown=breaker_cooldown)
        self.max_requeues = max_requeues
        self.record_retention = record_retention
        self._lock = threading.Lock()
        self._records: Dict[str, JobRecord] = {}
        self._grids: Dict[str, GridRecord] = {}
        #: canonical grid key -> id of the first accepted grid record.
        self._grid_primaries: Dict[str, str] = {}
        self._grid_sequence = 0
        self._sequence = 0
        self._in_flight = 0
        self._idle = threading.Condition(self._lock)
        self._slots = threading.Semaphore(workers)
        self._dispatcher: Optional[threading.Thread] = None
        self._running = False
        self._state = "idle"  # idle | serving | draining | drained
        self.started_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self, resume: bool = True) -> "TMAService":
        """Boot the dispatcher; optionally resubmit persisted jobs."""
        with self._lock:
            if self._running:
                return self
            self._running = True
            self._state = "serving"
            self.started_at = time.time()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="tma-dispatcher", daemon=True)
        self._dispatcher.start()
        if resume:
            for job in self.store.load_pending():
                receipt = self.submit_job(job, client="resume")
                if receipt.accepted:
                    self.metrics.inc("jobs_resumed")
        return self

    def _dispatch_loop(self) -> None:
        while True:
            acquired = self._slots.acquire(timeout=0.1)
            with self._lock:
                if not self._running and self.scheduler.queue_depth == 0:
                    if acquired:
                        self._slots.release()
                    return
            if not acquired:
                continue
            record = self.scheduler.next_job(timeout=0.1)
            if record is None:
                self._slots.release()
                with self._lock:
                    stop = not self._running
                if stop and self.scheduler.queue_depth == 0:
                    return
                continue
            self._launch(record)

    def _launch(self, record: JobRecord) -> None:
        breaker_key = self._breaker_key(record)
        if not self.breaker.allow(breaker_key):
            # Circuit open: the pair has been failing repeatedly, so
            # skip it — the job resolves immediately instead of
            # burning a worker slot on a likely failure.
            self.metrics.inc("jobs_quarantined")
            self._resolve(record, state="quarantined",
                          error=f"circuit open for {breaker_key}; "
                                f"job skipped")
            self._slots.release()
            self._refresh_gauges()
            return
        record.started_at = time.time()
        with self._lock:
            self._in_flight += 1
        self.metrics.inc("jobs_executed")
        self._emit(record, "running")
        allow_crash_hook = record.requeues == 0
        spec = record.job.runner_spec()
        if record.job.deadline_seconds is not None:
            # Relative budget -> absolute deadline, stamped at launch
            # so queue wait does not eat into the execution budget.
            spec = replace(spec, deadline=(record.started_at
                                           + record.job.deadline_seconds))
        # Windowed jobs stream per-window ticks when the executor keeps
        # the work in-process; progress callbacks cannot cross process
        # or shard boundaries, so those deployments stream lifecycle
        # events only.
        progress = None
        if spec.windows is not None and self.pool.supports_callbacks:
            record_id = record.id
            progress = (lambda message:
                        self.events.append(record_id, "progress",
                                           {"message": message}))
        try:
            future = self.pool.submit(spec,
                                      record.job.workload,
                                      record.job.config,
                                      allow_crash_hook,
                                      progress=progress)
        except Exception as exc:  # noqa: BLE001 - submission itself died
            self._finish_execution(record, error=exc)
            return
        future.add_done_callback(
            lambda fut, rec=record: self._on_future_done(rec, fut))

    @staticmethod
    def _breaker_key(record: JobRecord) -> str:
        return f"{record.job.workload}:{record.job.config}"

    def _on_future_done(self, record: JobRecord, future) -> None:
        error = future.exception()
        if error is not None:
            self._finish_execution(record, error=error, future=future)
            return
        self._finish_execution(record, outcome=future.result())

    def _finish_execution(self, record: JobRecord,
                          outcome=None, error: Optional[BaseException] = None,
                          future=None) -> None:
        breaker_key = self._breaker_key(record)
        try:
            if error is not None and self.pool.note_broken(error, future):
                self.metrics.inc("worker_crashes")
                if record.requeues < self.max_requeues:
                    self.metrics.inc("jobs_requeued")
                    self.scheduler.requeue(record)
                    return
                self.breaker.record_failure(breaker_key)
                self._resolve(record, state="failed",
                              error=f"worker crashed "
                                    f"{record.requeues + 1} times: {error}")
                return
            if error is not None:
                self.breaker.record_failure(breaker_key)
                self._resolve(record, state="failed",
                              error=f"{type(error).__name__}: {error}")
                return
            self._account_trace_cache(outcome)
            payload = outcome_payload(outcome)
            state = "done" if outcome.ok else "failed"
            if outcome.ok:
                self.breaker.record_success(breaker_key)
            else:
                self.breaker.record_failure(breaker_key)
            self._resolve(record, state=state,
                          result=payload,
                          error=None if outcome.ok else outcome.error)
        finally:
            with self._lock:
                self._in_flight -= 1
                self._idle.notify_all()
            self._slots.release()
            self._refresh_gauges()

    def _account_trace_cache(self, outcome) -> None:
        """Fold a run's trace-memoization counter delta into metrics.

        Worker processes ship the delta home on the
        :class:`~repro.reliability.runner.RunOutcome`, so the registry
        reflects cache behaviour across the whole pool.
        """
        delta = getattr(outcome, "trace_cache", None) or {}
        for key, amount in delta.items():
            if amount:
                self.metrics.inc(f"trace_cache_{key}", amount)

    def _emit(self, record: JobRecord, event: str, **data: Any) -> None:
        """Journal one lifecycle event for SSE subscribers."""
        self.events.append(record.id, event,
                           dict(data, job_key=record.job_key))

    def _emit_terminal(self, record: JobRecord) -> None:
        """Journal a record's terminal event, result payload included.

        Streaming clients get the full result in the final frame, so a
        successful stream never needs a follow-up status poll.
        """
        data: Dict[str, Any] = {"state": record.state}
        if record.error:
            data["error"] = record.error
        if record.result is not None:
            data["result"] = record.result
        self._emit(record, record.state, **data)

    def _resolve(self, record: JobRecord, state: str,
                 result: Optional[Dict[str, Any]] = None,
                 error: Optional[str] = None) -> None:
        """Complete a primary and fan its result out to followers."""
        followers = self.scheduler.resolve(record)
        now = time.time()
        for target in [record] + followers:
            target.state = state
            target.finished_at = now
            target.result = result
            target.error = error
            self._emit_terminal(target)
            latency = target.latency()
            if latency is not None:
                self.metrics.observe("job_latency_seconds", latency)
            if record.started_at is not None and target is record:
                self.metrics.observe("exec_seconds",
                                     now - record.started_at)
            self.metrics.inc("jobs_completed" if state == "done"
                             else "jobs_failed")
        self._prune_records()

    # ------------------------------------------------------------------
    # Client-facing API

    def submit_payload(self, payload: Dict[str, Any]) -> SubmitReceipt:
        """Admit a raw JSON submission: ``{job fields..., client, priority}``."""
        if not isinstance(payload, dict):
            raise JobValidationError("submission must be a JSON object")
        body = dict(payload)
        client = str(body.pop("client", "anonymous")) or "anonymous"
        try:
            priority = int(body.pop("priority", DEFAULT_PRIORITY))
        except (TypeError, ValueError):
            raise JobValidationError("priority must be an integer") from None
        if not (0 <= priority <= MAX_PRIORITY):
            raise JobValidationError(
                f"priority must be in [0, {MAX_PRIORITY}]")
        job = TMAJob.from_payload(body)
        return self.submit_job(job, client=client, priority=priority)

    def submit_job(self, job: TMAJob, client: str = "anonymous",
                   priority: int = DEFAULT_PRIORITY) -> SubmitReceipt:
        job.validate()
        record = self._new_record(job, client, priority)
        self.metrics.inc("jobs_submitted")

        # O(1) fast path: an exact cached result short-circuits the
        # queue and the pool entirely.
        cached = self.store.lookup(job)
        if cached is not None:
            self._serve_cached(record, cached, client)
            self._refresh_gauges()
            return SubmitReceipt(record=record, accepted=True,
                                 queue_depth=self.scheduler.queue_depth)

        # The scheduler looks the store up again under its lock, for a
        # primary that stored and retired after the lookup above.
        receipt = self.scheduler.submit(record, lookup=self._lookup_record)
        if receipt.cached is not None:
            self._serve_cached(record, receipt.cached, client)
        elif receipt.accepted:
            self.metrics.inc("jobs_accepted")
            self._emit(record, "queued", client=client,
                       coalesced_with=record.coalesced_with)
            if receipt.deduped:
                self.metrics.inc("dedup_hits")
        else:
            self.metrics.inc("jobs_rejected")
            receipt.retry_after = self._retry_after_estimate()
            self._emit_terminal(record)
        self._refresh_gauges()
        return receipt

    def _lookup_record(self, record: JobRecord) -> Optional[Dict[str, Any]]:
        return self.store.lookup(record.job)

    def _serve_cached(self, record: JobRecord, cached: Dict[str, Any],
                      client: str) -> None:
        """Complete *record* with a stored result; no queue, no run."""
        now = time.time()
        record.state = "done"
        record.started_at = now
        record.finished_at = now
        record.result = cached
        self.metrics.inc("jobs_accepted")
        self.metrics.inc("cache_hits")
        self.metrics.inc("jobs_completed")
        self._emit(record, "queued", client=client)
        self._emit_terminal(record)
        latency = record.latency()
        if latency is not None:
            self.metrics.observe("job_latency_seconds", latency)

    def submit_multicore_payload(self,
                                 payload: Dict[str, Any]) -> SubmitReceipt:
        """Admit a raw multicore submission: ``{scenario..., client, priority}``.

        The resulting :class:`MulticoreJob` rides the exact TMAJob
        path — admission, in-flight dedup, breaker, cached-payload
        fast path, drain persistence — via :meth:`submit_job`.
        """
        if not isinstance(payload, dict):
            raise JobValidationError("submission must be a JSON object")
        body = dict(payload)
        client = str(body.pop("client", "anonymous")) or "anonymous"
        try:
            priority = int(body.pop("priority", DEFAULT_PRIORITY))
        except (TypeError, ValueError):
            raise JobValidationError("priority must be an integer") from None
        if not (0 <= priority <= MAX_PRIORITY):
            raise JobValidationError(
                f"priority must be in [0, {MAX_PRIORITY}]")
        job = MulticoreJob.from_payload(body)
        self.metrics.inc("multicore_submitted")
        return self.submit_job(job, client=client, priority=priority)

    def submit_grid_payload(self, payload: Dict[str, Any]) -> GridRecord:
        """Admit a raw grid submission: ``{grid fields..., client, priority}``."""
        if not isinstance(payload, dict):
            raise JobValidationError("submission must be a JSON object")
        body = dict(payload)
        client = str(body.pop("client", "anonymous")) or "anonymous"
        try:
            priority = int(body.pop("priority", DEFAULT_PRIORITY))
        except (TypeError, ValueError):
            raise JobValidationError("priority must be an integer") from None
        if not (0 <= priority <= MAX_PRIORITY):
            raise JobValidationError(
                f"priority must be in [0, {MAX_PRIORITY}]")
        grid_job = GridJob.from_payload(body)
        return self.submit_grid(grid_job, client=client, priority=priority)

    def submit_grid(self, grid_job: GridJob, client: str = "anonymous",
                    priority: int = DEFAULT_PRIORITY) -> GridRecord:
        """Fan one grid request into per-point jobs; returns the index.

        Each point rides the normal job path — result-store hits
        complete immediately, the rest are admitted *atomically*
        through :meth:`JobScheduler.submit_many` (all points queued or
        the whole grid rejected, never a partial matrix) and coalesce
        point-by-point onto any in-flight duplicates, including points
        of other clients' overlapping grids.  The ``grid_points_*``
        counters and the ``grid_share_rate`` gauge expose how much of
        the design space was served without a fresh execution.
        """
        grid_job.validate()
        pairs = grid_job.expand()
        grid_key = grid_job.grid_key()
        self.metrics.inc("grids_submitted")
        self.metrics.inc("grid_points_total", len(pairs))

        point_record_ids: Dict[str, str] = {}
        queued: List[JobRecord] = []
        for point, job in pairs:
            record = self._new_record(job, client, priority)
            self.metrics.inc("jobs_submitted")
            point_record_ids[point.key] = record.id
            cached = self.store.lookup(job)
            if cached is not None:
                self._serve_cached(record, cached, client)
                self.metrics.inc("grid_points_cached")
                continue
            queued.append(record)

        accepted = True
        if queued:
            receipts = self.scheduler.submit_many(
                queued, lookup=self._lookup_record)
            accepted = all(receipt.accepted for receipt in receipts)
            if accepted:
                for receipt in receipts:
                    if receipt.cached is not None:
                        self._serve_cached(receipt.record, receipt.cached,
                                           client)
                        self.metrics.inc("grid_points_cached")
                        continue
                    self.metrics.inc("jobs_accepted")
                    self._emit(receipt.record, "queued", client=client,
                               coalesced_with=receipt.record.coalesced_with)
                    if receipt.deduped:
                        self.metrics.inc("dedup_hits")
                        self.metrics.inc("grid_points_coalesced")
            else:
                self.metrics.inc("jobs_rejected", len(queued))
                self.metrics.inc("grids_rejected")
                for record in queued:
                    self._emit_terminal(record)

        with self._lock:
            self._grid_sequence += 1
            grid_id = f"grid-{self._grid_sequence:04d}"
            primary_id = self._grid_primaries.get(grid_key)
            grid_record = GridRecord(
                id=grid_id, key=grid_key, workload=grid_job.workload,
                scale=grid_job.scale, client=client,
                point_keys=[point.key for point, _ in pairs],
                point_record_ids=point_record_ids,
                accepted=accepted, coalesced_with=primary_id)
            if primary_id is not None:
                self.metrics.inc("grid_dedup_hits")
            elif accepted:
                self._grid_primaries[grid_key] = grid_id
            self._grids[grid_id] = grid_record
            while len(self._grids) > DEFAULT_GRID_RETENTION:
                victim_id, victim = next(iter(self._grids.items()))
                del self._grids[victim_id]
                if self._grid_primaries.get(victim.key) == victim_id:
                    del self._grid_primaries[victim.key]
        self._refresh_gauges()
        return grid_record

    def grid_status(self, grid_id: str) -> Optional[Dict[str, Any]]:
        """Aggregate matrix view of one grid submission (None = 404)."""
        with self._lock:
            grid = self._grids.get(grid_id)
            if grid is None:
                return None
            points: Dict[str, Any] = {}
            states: List[str] = []
            for key in grid.point_keys:
                record_id = grid.point_record_ids.get(key)
                record = self._records.get(record_id or "")
                if record is None:
                    points[key] = {"record": record_id, "state": "evicted"}
                    states.append("evicted")
                    continue
                entry: Dict[str, Any] = {"record": record_id,
                                         "state": record.state}
                if record.result is not None:
                    entry["result"] = record.result
                if record.error:
                    entry["error"] = record.error
                points[key] = entry
                states.append(record.state)
        if not grid.accepted:
            state = "rejected"
        elif any(s in ("failed", "rejected", "quarantined", "evicted")
                 for s in states):
            state = ("failed" if all(s in _TERMINAL_RECORD_STATES
                                     or s == "evicted" for s in states)
                     else "running")
        elif all(s == "done" for s in states):
            state = "done"
        else:
            state = "running"
        return {
            "id": grid.id,
            "grid_key": grid.key,
            "workload": grid.workload,
            "scale": grid.scale,
            "client": grid.client,
            "state": state,
            "accepted": grid.accepted,
            "submitted_at": grid.submitted_at,
            "coalesced_with": grid.coalesced_with,
            "points": points,
        }

    def _new_record(self, job: TMAJob, client: str,
                    priority: int) -> JobRecord:
        with self._lock:
            self._sequence += 1
            record = JobRecord(id=f"job-{self._sequence:06d}", job=job,
                               client=client, priority=priority)
            self._records[record.id] = record
            self._prune_records_locked()
            return record

    def _prune_records_locked(self) -> None:
        """Evict the oldest terminal records beyond ``record_retention``.

        Live records (queued/running) are never evicted — they are
        bounded by the admission queue — so a long-running service
        holds at most ``record_retention`` finished records plus the
        bounded live set, instead of every record ever submitted.
        Evicted job ids answer 404 afterwards.
        """
        excess = len(self._records) - self.record_retention
        if excess <= 0:
            return
        victims = []
        for job_id, record in self._records.items():
            if record.state in _TERMINAL_RECORD_STATES:
                victims.append(job_id)
                if len(victims) >= excess:
                    break
        for job_id in victims:
            del self._records[job_id]
            self.events.discard(job_id)
        if victims:
            self.metrics.inc("records_evicted", len(victims))

    def _prune_records(self) -> None:
        with self._lock:
            self._prune_records_locked()

    def status(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            record = self._records.get(job_id)
        return record.to_payload() if record else None

    def records(self) -> List[JobRecord]:
        with self._lock:
            return list(self._records.values())

    def _retry_after_estimate(self) -> float:
        """Seconds until a queue slot should free up under current load."""
        mean = self.metrics.histogram_mean("exec_seconds")
        if mean <= 0:
            return _DEFAULT_RETRY_AFTER
        depth = self.scheduler.queue_depth + self.in_flight
        return round(max(0.05, mean * depth / self.pool.workers), 3)

    # ------------------------------------------------------------------
    # Observability

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def _refresh_gauges(self) -> None:
        self.metrics.set_gauge("queue_depth", self.scheduler.queue_depth)
        self.metrics.set_gauge("in_flight", self.in_flight)
        self.metrics.set_gauge("draining",
                               1.0 if self._state in ("draining", "drained")
                               else 0.0)
        hits = (self.metrics.counter("trace_cache_mem_hits")
                + self.metrics.counter("trace_cache_disk_hits"))
        lookups = hits + self.metrics.counter("trace_cache_misses")
        if lookups:
            self.metrics.set_gauge("trace_cache_hit_rate", hits / lookups)
        points_total = self.metrics.counter("grid_points_total")
        if points_total:
            shared = (self.metrics.counter("grid_points_cached")
                      + self.metrics.counter("grid_points_coalesced"))
            self.metrics.set_gauge("grid_share_rate", shared / points_total)

    def metrics_snapshot(self) -> Dict[str, Any]:
        self._refresh_gauges()
        snapshot = self.metrics.snapshot()
        snapshot["state"] = self._state
        if self.started_at is not None:
            snapshot["uptime_seconds"] = round(
                time.time() - self.started_at, 3)
        return snapshot

    def healthz(self) -> Dict[str, Any]:
        with self._lock:
            state = self._state
        payload = {
            "status": "ok" if state == "serving" else state,
            "state": state,
            "version": __version__,
            "queue_depth": self.scheduler.queue_depth,
            "in_flight": self.in_flight,
            "workers": self.pool.workers,
            "executor": self.pool.kind,
            "breaker_open": sorted(self.breaker.open_keys()),
        }
        if self.shard is not None:
            # Topology self-report: the gateway and the smoke harness
            # assert shard identity and ring placement from here
            # instead of guessing.
            payload["shard"] = self.shard.to_payload()
        return payload

    # ------------------------------------------------------------------
    # Drain and shutdown

    def drain(self, timeout: float = 30.0) -> Dict[str, Any]:
        """Graceful shutdown: finish what we can, persist the rest.

        Closes admission immediately, waits up to ``timeout`` seconds
        for the queue and in-flight jobs to finish, then persists any
        still-queued accepted jobs (and marks their records
        ``requeued``).  Returns a drain report whose ``persisted``
        figure counts every accepted submission left undone — queued
        primaries *plus* their coalesced followers, matching the
        ``jobs_persisted`` counter — so callers asserting zero loss
        check ``completed + failed + persisted == accepted``.
        (The pending file itself stores each unique job once.)
        """
        with self._lock:
            if self._state in ("draining", "drained"):
                return {"state": self._state, "persisted": 0}
            self._state = "draining"
        self.scheduler.close()
        self._refresh_gauges()

        deadline = time.time() + timeout
        with self._idle:
            while (self._in_flight > 0 or self.scheduler.queue_depth > 0):
                remaining = deadline - time.time()
                if remaining <= 0:
                    break
                self._idle.wait(min(remaining, 0.1))

        # Whatever is still queued gets durably persisted; whatever is
        # still in flight gets a short grace period from shutdown(wait).
        leftovers = self.scheduler.drain_queued()
        persisted_jobs: List[TMAJob] = []
        persisted_records = 0
        for record in leftovers:
            followers = self.scheduler.resolve(record)
            persisted_jobs.append(record.job)
            for target in [record] + followers:
                target.state = "requeued"
                self._emit_terminal(target)
                self.metrics.inc("jobs_persisted")
                persisted_records += 1
        if persisted_jobs:
            self.store.persist_pending(persisted_jobs)

        with self._lock:
            self._running = False
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0)
        self.pool.shutdown(wait=True)
        with self._lock:
            self._state = "drained"
        self._refresh_gauges()
        return {
            "state": "drained",
            "persisted": persisted_records,
            "completed": self.metrics.counter("jobs_completed"),
            "failed": self.metrics.counter("jobs_failed"),
            "accepted": self.metrics.counter("jobs_accepted"),
            # Handoff manifest: a gateway removing this shard from the
            # ring resubmits these payloads to the surviving owners, so
            # a graceful leave rebalances pending work immediately
            # instead of waiting for this node to restart.
            "pending_jobs": [job.to_payload() for job in persisted_jobs],
        }

    def stop(self) -> None:
        """Hard stop for tests: drain with a tiny timeout."""
        self.drain(timeout=0.5)
