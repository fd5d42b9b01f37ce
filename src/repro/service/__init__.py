"""Queue-driven TMA analysis service.

Turns the one-shot CLI pipeline into a long-running service: clients
submit :class:`TMAJob` analyses over a stdlib JSON HTTP API (or
in-process), a bounded priority scheduler coalesces duplicates and
applies backpressure, a crash-surviving worker pool executes through
the resilient runner, repeat requests are served O(1) from the
checksummed disk cache, and live counters/gauges/latency histograms
are one ``GET /metrics`` away.  See ``docs/service.md``.

The service also scales out: N shard servers each own a deterministic
slice of the canonical job-key space via a consistent-hash ring
(:mod:`repro.service.hashring`), a stateless gateway
(:mod:`repro.service.gateway`) routes submissions, fans grids out,
and rebalances on shard join/leave, and every job's lifecycle is
observable live over SSE (:mod:`repro.service.stream`,
``GET /jobs/<id>/events``).

Quickstart (in-process)::

    from repro.service import TMAService

    service = TMAService(workers=2, executor="thread").start()
    receipt = service.submit_payload({"workload": "vvadd", "scale": 0.2})
    ...
    service.drain()

Or over HTTP: ``repro-tma serve`` + ``repro-tma submit`` /
:class:`ServiceClient`; multi-node: ``repro-tma serve --shard-id sK``
per shard + ``repro-tma gateway --shards ...``.
"""

from .app import TMAService
from .client import JobRejected, ServiceClient, ServiceError
from .gateway import Gateway
from .hashring import (DEFAULT_VNODES, HashRing, parse_shard_spec,
                       ring_position, stable_hash)
from .job import (GridJob, JobRecord, JobValidationError, MulticoreJob,
                  TMAJob, outcome_payload)
from .metrics import Histogram, MetricsRegistry, merge_snapshots
from .scheduler import JobScheduler, SubmitReceipt
from .server import ServiceServer, make_server, serve_in_thread
from .shard import ShardInfo, make_shard_service
from .store import ResultStore
from .stream import EventJournal, JobEvent, parse_sse, sse_encode
from .workers import WorkerPool, execute_job

__all__ = [
    "DEFAULT_VNODES",
    "EventJournal",
    "Gateway",
    "GridJob",
    "HashRing",
    "Histogram",
    "JobEvent",
    "JobRecord",
    "JobRejected",
    "JobScheduler",
    "JobValidationError",
    "MetricsRegistry",
    "MulticoreJob",
    "ResultStore",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ShardInfo",
    "SubmitReceipt",
    "TMAJob",
    "TMAService",
    "WorkerPool",
    "execute_job",
    "make_server",
    "make_shard_service",
    "merge_snapshots",
    "outcome_payload",
    "parse_shard_spec",
    "parse_sse",
    "ring_position",
    "serve_in_thread",
    "sse_encode",
    "stable_hash",
]
