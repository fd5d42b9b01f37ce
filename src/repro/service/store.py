"""Result store: O(1) repeat-request serving plus durable requeue.

The store layers the service onto :mod:`repro.tools.cache` — the
checksummed, atomically-written, size-bounded disk cache of core
results.  A repeat request whose underlying core result is already on
disk is answered straight from the store (TMA recomputed from the
cached :class:`~repro.cores.base.CoreResult`, which is cheap) without
ever touching the worker pool.  When that entry is missing or damaged
(the primary's cache write hit a full disk, or was corrupted), the
repeat is answered from the finished primary's result, which the store
keeps in memory for the last :data:`RECENT_RESULTS` jobs — a failed
write costs durability, never a second execution.

Serving from the core-result cache is only *exact* for the default
harness options: the ``adders`` counter architecture is an exact
popcount (PMU readings equal the core's own totals) and ``baremetal``
adds no measurement passes.  Jobs that ask for ``classic`` /
``distributed`` counters or ``linux`` mode measure through multi-pass
or perturbed harness paths, so those always execute.

The store also owns the drain persistence file: accepted jobs that a
shutdown could not finish are written (atomically) to
``pending-jobs.state`` next to the cache entries, and a restarting
service resubmits them — accepted work is never silently lost.  The
file deliberately does *not* carry a ``.json`` suffix: cache entries
are globbed as ``*.json``, and the pending file must never be counted
or evicted as an LRU cache entry by :func:`repro.tools.cache.prune`.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..core.tma import compute_tma
from ..reliability.runner import RunOutcome
from ..tools import cache
from .job import MulticoreJob, TMAJob, outcome_payload

#: Drain-persistence file name (lives inside the cache directory so
#: ``REPRO_CACHE_DIR`` isolates it along with the results).  JSON
#: content, but a non-``.json`` suffix: the cache's ``*.json`` scan
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

    @staticmethod
    def servable(job: TMAJob) -> bool:
        """True when the disk cache is an exact stand-in for a run."""
        return (job.use_cache
                and job.increment_mode == "adders"
                and job.mode == "baremetal"
                and job.events is None)

    def _cacheable(self, job: TMAJob) -> bool:
        if isinstance(job, MulticoreJob):
            return job.use_cache
        return self.servable(job)

    def lookup(self, job: TMAJob) -> Optional[Dict[str, Any]]:
        """Result payload for *job* if served without a run.

        The disk cache answers first; a job whose entry is missing or
        damaged is answered from its last :meth:`remember`-ed result.
        """
        if not self._cacheable(job):
            return None
        if isinstance(job, MulticoreJob):
            payload = self._lookup_multicore(job)
        else:
            payload = self._lookup_core(job)
        if payload is not None:
            return payload
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
        if not self._cacheable(job):
            return
        served = {key: value for key, value in payload.items()
                  if key not in ("error_class", "error")}
        served.update(attempts=0, from_cache=True)
        if isinstance(served.get("multicore"), dict):
            served["multicore"] = dict(served["multicore"], from_cache=True)
        key = job.job_key()
        with self._lock:
            self._recent[key] = served
            self._recent.move_to_end(key)
            while len(self._recent) > RECENT_RESULTS:
                self._recent.popitem(last=False)

    def _lookup_core(self, job: TMAJob) -> Optional[Dict[str, Any]]:
        """Serve a single-core job from its cached core result."""
        result = cache.load(job.cache_key())
        if result is None:
            return None
        tma = compute_tma(result)
        outcome = RunOutcome(workload=job.workload,
                             config_name=result.config_name,
                             status="ok", attempts=0)
        payload = outcome_payload(outcome, from_cache=True)
        payload["cycles"] = result.cycles
        payload["instret"] = result.instret
        payload["ipc"] = round(result.ipc, 6)
        payload["tma"] = {
            "level1": {k: round(v, 6) for k, v in tma.level1.items()},
            "level2": {k: round(v, 6) for k, v in tma.level2.items()},
            "dominant": tma.dominant_class(),
        }
        return payload

    def _lookup_multicore(self, job: MulticoreJob) -> Optional[Dict[str, Any]]:
        """Serve a scenario job from the cached scenario payload.

        Scenario runs cache their whole result document (see
        :func:`repro.multicore.run_scenario_payload`), so a repeat
        request reconstructs the job result verbatim — no recompute.
        """
        cached = cache.load_payload(job.cache_key())
        if cached is None:
            return None
        return {
            "status": "ok",
            "attempts": 0,
            "from_cache": True,
            "multicore": dict(cached, from_cache=True),
        }

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
