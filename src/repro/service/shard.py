"""The ``shard`` rung of the executor ladder: multi-node dispatch.

A :class:`ShardExecutor` satisfies the same ``submit``/``shutdown``/
context-manager contract as the in-process rungs
(:mod:`repro.tools.pool`), but executes each submission on a cluster of
shard servers over HTTP.  Routing is by consistent hash of the job's
canonical key (:class:`~repro.service.hashring.HashRing`), so a given
analysis always lands on the same shard — which is exactly what keeps
in-flight dedup and result-store reuse *exact* under sharding: every
duplicate converges on one scheduler.

Work cannot be shipped to another machine as a closure, so only
functions with a registered *remote adapter*
(:func:`repro.tools.pool.register_remote`) are accepted; anything else
raises instead of silently running locally.  This module registers the
one remotable entry point on import,
:func:`repro.service.workers.execute_job` — one service job; the
shard's result document is spliced back verbatim
(``payload["kind"] == "remote"``), so remote and local execution
produce identical result payloads.

It also registers the ``shard`` style itself
(:func:`repro.tools.pool.register_executor`), completing the lazy-load
contract declared by ``repro.tools.pool._LAZY_STYLES``.

:class:`ShardInfo` is the other half of the story: the identity a
*server* process carries when it runs as a cluster member
(``repro-tma serve --shard-id``), surfaced through ``/healthz`` and
used to namespace its drain-persistence file.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..reliability.runner import RunOutcome
from ..tools import pool
from ..tools.pool import RunnerSpec, ThreadExecutor
from .client import ServiceClient, ServiceError
from .hashring import HashRing, parse_shard_spec, ring_position
from .job import MulticoreJob, TMAJob

#: Cluster membership for executor-side routing:
#: ``REPRO_SHARDS="s1=http://h:p,s2=http://h:p"``.
SHARDS_ENV = "REPRO_SHARDS"

#: Per-job remote wait budget override (seconds).
JOB_TIMEOUT_ENV = "REPRO_SHARD_JOB_TIMEOUT"
DEFAULT_JOB_TIMEOUT = 300.0

#: Bounded 429 retries per shard before the submission fails loudly.
DEFAULT_SUBMIT_RETRIES = 20


@dataclass(frozen=True)
class ShardInfo:
    """Identity of one shard server within a cluster."""

    id: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("shard id must be non-empty")
        safe = set("abcdefghijklmnopqrstuvwxyz"
                   "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")
        if not set(self.id) <= safe:
            # The id lands in the pending-file name
            # (``pending-jobs.<id>.state``), so it must stay
            # filesystem-safe.
            raise ValueError(
                f"shard id {self.id!r} must use only [A-Za-z0-9._-]")

    @property
    def ring_position(self) -> int:
        return ring_position(self.id)

    def to_payload(self) -> Dict[str, Any]:
        return {"id": self.id, "ring_position": self.ring_position}


def make_shard_service(shard_id: str, **kwargs: Any):
    """A :class:`~repro.service.app.TMAService` running as one shard."""
    from .app import TMAService

    return TMAService(shard=ShardInfo(shard_id), **kwargs)


# ---------------------------------------------------------------------------
# Spec → wire format


def _spec_to_submission(
    spec: RunnerSpec, workload: str, config_name: str,
) -> Tuple[str, Dict[str, Any], Any]:
    """Translate an in-process execution request to (path, body, job).

    The body is exactly what the shard server will parse back through
    ``TMAJob.from_payload`` / ``MulticoreJob.from_payload`` — building
    the same job object here guarantees the executor routes by the
    *same* canonical job key the server deduplicates on.

    The retry shape (``max_attempts``/``backoff_base``) deliberately
    does not ship: retry policy is the executing server's concern, and
    folding it into the key would split dedup.
    An absolute ``deadline`` is rebased to the relative
    ``deadline_seconds`` the wire format carries.
    """
    deadline_seconds: Optional[float] = None
    if spec.deadline is not None:
        deadline_seconds = round(max(spec.deadline - time.time(), 0.001), 3)
    if spec.scenario is not None:
        body: Dict[str, Any] = {
            "scenario": spec.scenario,
            "cores": spec.scenario_cores,
            "scale": spec.scenario_scale,
            "shared_bus": spec.scenario_shared_bus,
            "arbitration": spec.scenario_arbitration,
            "use_cache": spec.use_cache,
            "deadline_seconds": deadline_seconds,
        }
        return "/multicore", body, MulticoreJob.from_payload(body)
    body = {
        "workload": workload,
        "config": config_name,
        "scale": spec.scale,
        "increment_mode": spec.increment_mode,
        "mode": spec.mode,
        "events": list(spec.event_names) if spec.event_names else None,
        "use_cache": spec.use_cache,
        "max_cycles": spec.max_cycles,
        "deadline_seconds": deadline_seconds,
        "windows": spec.windows,
        "warmup": spec.windows_warmup,
        "sampled": spec.windows_sampled,
    }
    return "/jobs", body, TMAJob.from_payload(body)


def _record_to_outcome(record: Dict[str, Any], workload: str,
                       config_name: str) -> RunOutcome:
    """Map a terminal job record from a shard back to a RunOutcome."""
    result = record.get("result") or {}
    payload = dict(result, kind="remote") if result else None
    if record.get("state") == "done" and result.get("status") == "ok":
        return RunOutcome(
            workload=workload, config_name=config_name, status="ok",
            attempts=int(result.get("attempts") or 1), payload=payload)
    error = (record.get("error") or result.get("error")
             or f"shard job ended in state {record.get('state')!r}")
    return RunOutcome(
        workload=workload, config_name=config_name, status="failed",
        attempts=int(result.get("attempts") or 1),
        error_class=result.get("error_class") or "ShardJobFailed",
        error=str(error), payload=payload)


# ---------------------------------------------------------------------------
# The executor


class ShardExecutor:
    """Executor rung that routes submissions across shard servers.

    ``shards`` is an id → base-URL mapping (or a
    :func:`~repro.service.hashring.parse_shard_spec` string); when
    omitted it comes from ``REPRO_SHARDS``.  ``workers`` bounds the
    number of concurrently in-flight remote submissions — dispatch
    threads spend their lives blocked on HTTP, so this is a politeness
    cap on the cluster, not a CPU knob.

    Failover: a shard that cannot be reached at all (connection
    refused/reset — ``ServiceError.status == 0``) is skipped and the
    submission walks the ring's clockwise owner order
    (:meth:`HashRing.owners`).  Backpressure (429) is retried in place,
    honouring the server's ``retry_after``: the owner shard being busy
    is not a reason to break routing exactness.
    """

    kind = "shard"

    def __init__(self, workers: int,
                 shards: Optional[Any] = None,
                 job_timeout: Optional[float] = None,
                 submit_retries: int = DEFAULT_SUBMIT_RETRIES,
                 client_factory: Callable[[str], ServiceClient]
                 = ServiceClient) -> None:
        if shards is None:
            shards = os.environ.get(SHARDS_ENV, "")
        if not shards:
            raise ValueError(
                "shard executor needs cluster members: pass shards= or "
                f"set {SHARDS_ENV}=\"s1=http://host:port,...\"")
        if isinstance(shards, str):
            shards = parse_shard_spec(shards)
        if job_timeout is None:
            raw = os.environ.get(JOB_TIMEOUT_ENV, "").strip()
            try:
                job_timeout = float(raw) if raw else DEFAULT_JOB_TIMEOUT
            except ValueError:
                job_timeout = DEFAULT_JOB_TIMEOUT
        self.workers = workers
        self.job_timeout = job_timeout
        self.submit_retries = submit_retries
        self.clients: Dict[str, ServiceClient] = {
            shard_id: client_factory(url)
            for shard_id, url in shards.items()
        }
        self.ring = HashRing(self.clients)
        self._pool = ThreadExecutor(workers)

    # -- executor contract -------------------------------------------------

    def submit(self, fn: Callable, *args: Any, **kwargs: Any):
        adapter = pool.remote_adapter(fn)
        if adapter is None:
            name = getattr(fn, "__name__", repr(fn))
            raise RuntimeError(
                f"{name} has no registered remote adapter; the shard rung "
                f"refuses to run unremotable work locally "
                f"(see repro.tools.pool.register_remote)")
        return self._pool.submit(adapter, self, *args, **kwargs)

    def shutdown(self, wait: bool = True, **_: object) -> None:
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- routing -----------------------------------------------------------

    def dispatch(self, path: str, body: Dict[str, Any],
                 job_key: str) -> Dict[str, Any]:
        """Submit one job to its ring owner and wait for the record.

        Returns the terminal job record payload.  Walks the failover
        owner order when shards are unreachable; raises the last
        transport error when every member is down.
        """
        last_error: Optional[ServiceError] = None
        for shard_id in self.ring.owners(job_key, len(self.ring)):
            client = self.clients[shard_id]
            try:
                receipt = self._submit_to(client, path, body)
            except ServiceError as exc:
                if exc.status == 0:
                    last_error = exc  # dead shard: try the next owner
                    continue
                raise
            return client.wait(receipt["id"], timeout=self.job_timeout)
        assert last_error is not None
        raise last_error

    def _submit_to(self, client: ServiceClient, path: str,
                   body: Dict[str, Any]) -> Dict[str, Any]:
        fields = {key: value for key, value in body.items()
                  if key not in ("workload", "scenario")}
        if path == "/multicore":
            return client.submit_multicore(
                body["scenario"], retries=self.submit_retries, **fields)
        return client.submit(
            body["workload"], retries=self.submit_retries, **fields)


def shard_executor_factory(workers: int) -> ShardExecutor:
    return ShardExecutor(workers)


# ---------------------------------------------------------------------------
# Remote adapters


def _remote_execute_job(executor: ShardExecutor, spec: RunnerSpec,
                        workload: str, config_name: str,
                        allow_crash_hook: bool = True,
                        progress: Optional[Callable[[str], None]] = None
                        ) -> RunOutcome:
    """Remote equivalent of :func:`repro.service.workers.execute_job`."""
    del allow_crash_hook  # crash hooks are a local pool-worker concern
    del progress          # callbacks cannot cross the wire (see WorkerPool)
    path, body, job = _spec_to_submission(spec, workload, config_name)
    record = executor.dispatch(path, body, job.job_key())
    return _record_to_outcome(record, workload, config_name)


def _register() -> None:
    from . import workers

    pool.register_executor("shard", shard_executor_factory)
    pool.register_remote(workers.execute_job, _remote_execute_job)


_register()

__all__ = [
    "DEFAULT_JOB_TIMEOUT",
    "SHARDS_ENV",
    "ShardExecutor",
    "ShardInfo",
    "make_shard_service",
    "shard_executor_factory",
]
