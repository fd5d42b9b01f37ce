"""Result store: O(1) repeat-request serving plus durable requeue.

The store layers the service onto :mod:`repro.tools.cache` — the
checksummed, atomically-written, size-bounded disk cache of core
results and scenario payloads.  A repeat request whose result is
already on disk is answered straight from the store without ever
touching the worker pool: the hit comes from the runner seam's own
lookup step (:func:`repro.reliability.runner.lookup`, which quarantines
a damaged entry) and is rendered by
:func:`~repro.service.job.outcome_payload` exactly like an executed
result.  When that entry is missing or damaged (the primary's cache
write hit a full disk, or was corrupted), the repeat is answered from
the finished primary's result, which the store keeps in memory for the
last :data:`RECENT_RESULTS` jobs — a failed write costs durability,
never a second execution.

Only jobs whose cache entry is an *exact* stand-in for a run are
served (``job.servable()``): ``classic``/``distributed`` counters,
``linux`` mode or an explicit event list always execute.

The store also owns the drain persistence file: accepted jobs that a
shutdown could not finish are written (atomically) to
``pending-jobs.state`` next to the cache entries, and a restarting
service resubmits them — accepted work is never silently lost.  The
file deliberately does *not* carry an entry suffix (result entries are
globbed as ``*.json``, traces as ``traces/*.ctrc``), so it is never
counted or evicted as an LRU cache entry by
:func:`repro.tools.cache.prune`.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..reliability import runner
from ..tools import cache
from .job import MulticoreJob, TMAJob, outcome_payload

#: Drain-persistence file name (lives inside the cache directory so
#: ``REPRO_CACHE_DIR`` isolates it along with the results).  JSON
#: content, but a non-``.json`` suffix: the store's ``*.json`` scan
#: must not treat it as an evictable entry.
PENDING_FILE = "pending-jobs.state"

#: Finished results kept in memory for repeats the disk cache misses.
RECENT_RESULTS = 256


class ResultStore:
    """Cache-backed result serving and pending-job persistence.

    ``instance`` namespaces the drain-persistence file: shard servers
    of one cluster share a cache directory (that sharing *is* the
    result-store handoff — any node serves any cached result), but
    each must persist its own pending queue, or two shards draining
    concurrently would clobber each other's files last-write-wins.
    """

    def __init__(self, instance: Optional[str] = None) -> None:
        self.instance = instance
        self._lock = threading.Lock()
        #: job key -> served payload of the job's last finished run.
        self._recent: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    def pending_path(self) -> Path:
        if self.instance:
            name = f"pending-jobs.{self.instance}.state"
            return cache.cache_dir() / name
        return cache.cache_dir() / PENDING_FILE

    # ------------------------------------------------------------------
    # Repeat-request serving

    def lookup(self, job: TMAJob) -> Optional[Dict[str, Any]]:
        """Result payload for *job* if served without a run.

        The disk cache answers first; a job whose entry is missing or
        damaged is answered from its last :meth:`remember`-ed result.
        """
        if not job.servable():
            return None
        served, _ = runner.lookup(job)
        if served is not None:
            return outcome_payload(served, from_cache=True)
        with self._lock:
            payload = self._recent.get(job.job_key())
        return None if payload is None else dict(payload)

    def remember(self, job: TMAJob, payload: Dict[str, Any]) -> None:
        """Keep a finished run's result for repeats the disk misses.

        The service calls this before it retires the primary, so a
        repeat that arrives afterwards is served even when the
        primary's cache write failed.  The served copy reads like a
        disk hit: no attempts, ``from_cache``, no recovered-error note.
        """
        if not job.servable():
            return
        served = {key: value for key, value in payload.items()
                  if key not in ("error_class", "error")}
        served.update(attempts=0, from_cache=True)
        key = job.job_key()
        with self._lock:
            self._recent[key] = served
            self._recent.move_to_end(key)
            while len(self._recent) > RECENT_RESULTS:
                self._recent.popitem(last=False)

    # ------------------------------------------------------------------
    # Durable requeue across restarts

    def persist_pending(self, jobs: List[TMAJob]) -> Path:
        """Atomically write undone-but-accepted jobs for the next boot."""
        path = self.pending_path()
        document = {"version": 1,
                    "jobs": [job.to_payload() for job in jobs]}
        cache.atomic_write(path, json.dumps(document).encode("utf-8"))
        return path

    def load_pending(self) -> List[TMAJob]:
        """Read and consume the persisted pending-job file, if any."""
        path = self.pending_path()
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            return []
        jobs: List[TMAJob] = []
        for payload in document.get("jobs", []):
            try:
                # The "type" tag picks the job class; untagged payloads
                # are single-core jobs (including every pre-tag file).
                if (isinstance(payload, dict)
                        and payload.get("type") == "multicore"):
                    jobs.append(MulticoreJob.from_payload(payload))
                else:
                    jobs.append(TMAJob.from_payload(payload))
            except ValueError:
                continue  # a stale workload/config name: drop, don't crash
        try:
            os.remove(path)
        except OSError:
            pass
        return jobs
