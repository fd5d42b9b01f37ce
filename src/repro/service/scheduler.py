"""Priority scheduler: bounded admission, fair-share, dedup, backpressure.

The scheduler is the service's front door.  Its contract:

- **Bounded admission.**  At most ``capacity`` primary jobs may be
  queued; a submission that would exceed the bound is rejected
  immediately with a retry-after hint — the queue never grows without
  limit, so memory and tail latency stay bounded under overload.
- **In-flight dedup.**  A submission whose :meth:`~TMAJob.job_key`
  matches a queued or running primary does *not* consume a queue slot:
  it attaches to the primary as a follower and completes when the
  primary does (one execution, N completions).  Dedup therefore
  *relieves* backpressure — duplicate-heavy bursts coalesce instead of
  filling the queue.  With no primary in flight, an optional result
  lookup runs under the same lock: a primary's result reaches the
  store (on disk, and in the store's memory should the disk write
  fail) before it is retired, so a repeat that just missed the store
  cannot slip past its finished primary into a second execution.
- **Priority then fair-share.**  Dispatch order is priority class
  ascending (0 first); within a class, clients are served round-robin
  so one chatty client cannot starve the rest.  Within one client's
  queue, FIFO.
- **Requeue at the front.**  A job whose worker crashed re-enters its
  client queue at the head (it has already waited its turn once).

All methods are thread-safe; :meth:`next_job` blocks until work is
available, the timeout lapses, or the scheduler is closed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from ..chaos import injector as chaos
from .job import JobRecord


@dataclass
class SubmitReceipt:
    """What admission decided for one submission."""

    record: JobRecord
    accepted: bool
    deduped: bool = False
    queue_depth: int = 0
    retry_after: Optional[float] = None
    #: Stored result that completes the submission without a run.
    cached: Optional[Dict[str, Any]] = None


#: Result-store lookup consulted under the scheduler lock.
Lookup = Callable[[JobRecord], Optional[Dict[str, Any]]]


class JobScheduler:
    """Bounded, deduplicating, fair-share priority queue of JobRecords."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        #: priority -> client -> FIFO of queued primaries.  OrderedDict
        #: preserves client arrival order; round-robin rotates it.
        self._queues: Dict[int, "OrderedDict[str, Deque[JobRecord]]"] = {}
        self._queued = 0
        #: job_key -> primary record currently queued or running.
        self._primaries: Dict[str, JobRecord] = {}
        #: job_key -> follower records coalesced onto that primary.
        self._followers: Dict[str, List[JobRecord]] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Admission

    def submit(self, record: JobRecord,
               lookup: Optional[Lookup] = None) -> SubmitReceipt:
        """Admit, coalesce, serve from *lookup*, or reject a submission."""
        with self._lock:
            if self._closed:
                record.state = "rejected"
                record.error = "service is draining"
                return SubmitReceipt(record=record, accepted=False,
                                     queue_depth=self._queued)
            key = record.job_key
            primary = self._primaries.get(key)
            if primary is not None:
                record.state = "queued"
                record.coalesced_with = primary.id
                self._followers.setdefault(key, []).append(record)
                return SubmitReceipt(record=record, accepted=True,
                                     deduped=True,
                                     queue_depth=self._queued)
            cached = lookup(record) if lookup is not None else None
            if cached is not None:
                return SubmitReceipt(record=record, accepted=True,
                                     queue_depth=self._queued,
                                     cached=cached)
            if self._queued >= self.capacity:
                record.state = "rejected"
                record.error = "queue full"
                return SubmitReceipt(record=record, accepted=False,
                                     queue_depth=self._queued)
            record.state = "queued"
            self._primaries[key] = record
            self._enqueue(record, front=False)
            self._available.notify()
            return SubmitReceipt(record=record, accepted=True,
                                 queue_depth=self._queued)

    def submit_many(self, records: List[JobRecord],
                    lookup: Optional[Lookup] = None) -> List[SubmitReceipt]:
        """Admit a whole batch atomically (one lock hold, no partial grids).

        Grid fan-outs need all-or-nothing admission: accepting half a
        design-space matrix and rejecting the rest leaves the client
        with an unusable partial grid *and* burns queue slots on it.
        Every record that can coalesce — onto an existing primary or
        onto an earlier record *in this batch* — does so for free; if
        the remaining new primaries do not all fit under ``capacity``,
        the entire batch is rejected and no state changes.  Holding the
        lock across the batch also keeps the fair-share accounting
        atomic: another client's fan-out cannot interleave.  Records
        *lookup* serves are accepted with their stored result and take
        no slot.
        """
        with self._lock:
            if self._closed:
                for record in records:
                    record.state = "rejected"
                    record.error = "service is draining"
                return [SubmitReceipt(record=record, accepted=False,
                                      queue_depth=self._queued)
                        for record in records]
            # Phase 1: classify without mutating, so rejection is free.
            batch_primaries: Dict[str, JobRecord] = {}
            batch_cached: Dict[str, Dict[str, Any]] = {}
            plans: List[str] = []  # "existing" | "batch" | "cached" | "new"
            for record in records:
                key = record.job_key
                if key in self._primaries:
                    plans.append("existing")
                elif key in batch_primaries:
                    plans.append("batch")
                elif key in batch_cached:
                    plans.append("cached")
                else:
                    cached = lookup(record) if lookup is not None else None
                    if cached is not None:
                        batch_cached[key] = cached
                        plans.append("cached")
                        continue
                    batch_primaries[key] = record
                    plans.append("new")
            if self._queued + len(batch_primaries) > self.capacity:
                for record in records:
                    record.state = "rejected"
                    record.error = (
                        f"queue cannot hold {len(batch_primaries)} more "
                        f"primaries (depth {self._queued}/{self.capacity})")
                return [SubmitReceipt(record=record, accepted=False,
                                      queue_depth=self._queued)
                        for record in records]
            # Phase 2: commit.
            receipts: List[SubmitReceipt] = []
            for record, plan in zip(records, plans):
                key = record.job_key
                if plan == "cached":
                    receipts.append(SubmitReceipt(
                        record=record, accepted=True,
                        queue_depth=self._queued, cached=batch_cached[key]))
                    continue
                record.state = "queued"
                if plan == "new":
                    self._primaries[key] = record
                    self._enqueue(record, front=False)
                    receipts.append(SubmitReceipt(
                        record=record, accepted=True,
                        queue_depth=self._queued))
                else:
                    primary = (self._primaries[key] if plan == "existing"
                               else batch_primaries[key])
                    record.coalesced_with = primary.id
                    self._followers.setdefault(key, []).append(record)
                    receipts.append(SubmitReceipt(
                        record=record, accepted=True, deduped=True,
                        queue_depth=self._queued))
            if batch_primaries:
                self._available.notify_all()
            return receipts

    def _enqueue(self, record: JobRecord, front: bool) -> None:
        per_client = self._queues.setdefault(record.priority, OrderedDict())
        queue = per_client.setdefault(record.client, deque())
        if front:
            queue.appendleft(record)
        else:
            queue.append(record)
        self._queued += 1

    # ------------------------------------------------------------------
    # Dispatch

    def next_job(self, timeout: Optional[float] = None) -> Optional[JobRecord]:
        """Pop the next primary to execute; None on timeout/close."""
        # Chaos scheduler-stall seam: an injected pause *before* the
        # lock shakes out dispatch-ordering assumptions without ever
        # holding the queue lock while sleeping.
        chaos.maybe_stall()
        with self._lock:
            if not self._queued and not self._closed:
                self._available.wait(timeout)
            if not self._queued:
                return None
            for priority in sorted(self._queues):
                per_client = self._queues[priority]
                while per_client:
                    client, queue = next(iter(per_client.items()))
                    if not queue:
                        del per_client[client]
                        continue
                    record = queue.popleft()
                    self._queued -= 1
                    # Rotate the served client to the back of the
                    # round-robin ring (keep its remaining backlog).
                    del per_client[client]
                    if queue:
                        per_client[client] = queue
                    if not per_client:
                        del self._queues[priority]
                    record.state = "running"
                    return record
            return None

    def requeue(self, record: JobRecord) -> None:
        """Put a crashed primary back at the head of its client queue."""
        with self._lock:
            record.state = "queued"
            record.requeues += 1
            self._primaries[record.job_key] = record
            self._enqueue(record, front=True)
            self._available.notify()

    # ------------------------------------------------------------------
    # Completion fan-out

    def resolve(self, record: JobRecord) -> List[JobRecord]:
        """Retire a primary; returns the followers awaiting its result."""
        with self._lock:
            key = record.job_key
            if self._primaries.get(key) is record:
                del self._primaries[key]
            return self._followers.pop(key, [])

    # ------------------------------------------------------------------
    # Introspection and shutdown

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._queued

    def close(self) -> None:
        """Stop admitting; wake any blocked dispatcher."""
        with self._lock:
            self._closed = True
            self._available.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def drain_queued(self) -> List[JobRecord]:
        """Remove and return every still-queued primary (for persisting)."""
        with self._lock:
            drained: List[JobRecord] = []
            for per_client in self._queues.values():
                for queue in per_client.values():
                    drained.extend(queue)
                    queue.clear()
            self._queues.clear()
            self._queued = 0
            for record in drained:
                if self._primaries.get(record.job_key) is record:
                    del self._primaries[record.job_key]
            drained.sort(key=lambda r: (r.priority, r.submitted_at))
            return drained
