"""Typed job model for the TMA analysis service.

The run requests a client submits — :class:`TMAJob` (one point,
windowed or not) and :class:`MulticoreJob` (one scenario) — live in
:mod:`repro.reliability.request`, next to the runner that executes them,
and are re-exported here.  Jobs are value objects with a canonical
``job_key``, so two requests for the same analysis — regardless of
submitting client or priority — share one key and can be coalesced by
the scheduler and served by the result store.  :class:`GridJob` expands
a design-space submission into one :class:`TMAJob` per grid point.

:class:`JobRecord` is the service-side lifecycle wrapper: identity,
client, priority, state machine, timestamps, attempts, and the JSON
result payload handed back through the API.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..cores.batch import (DEFAULT_GRID, GridPoint, canonical_grid_key,
                           parse_grid)
from ..reliability.request import (DEFAULT_MAX_CYCLES, JobValidationError,
                                   MulticoreJob, TMAJob)
from ..reliability.runner import RunOutcome

__all__ = ["GridJob", "JobRecord", "JobValidationError", "MulticoreJob",
           "TMAJob", "outcome_payload"]

#: Job lifecycle states.  ``queued -> running -> done|failed`` is the
#: happy path; ``rejected`` marks backpressure refusals (never entered
#: the queue), ``requeued`` marks jobs durably persisted by a drain,
#: and ``quarantined`` marks jobs skipped because their
#: (workload, config) circuit breaker was open.
JOB_STATES = ("queued", "running", "done", "failed", "rejected", "requeued",
              "quarantined")

#: Priorities are small ints, 0 = most urgent.
DEFAULT_PRIORITY = 1
MAX_PRIORITY = 9


@dataclass(frozen=True)
class GridJob:
    """One design-space request: workload × grid of core configs.

    A grid submission fans out into one :class:`TMAJob` per grid point
    (:meth:`expand`); each point job carries the canonical point key as
    its ``config`` and rides the normal scheduler path, so overlapping
    grids from different clients coalesce point-by-point through the
    existing in-flight dedup, and repeated grids are served by the
    result store.  :meth:`grid_key` is the order-independent identity
    of the whole request, used for grid-level dedup accounting.
    """

    workload: str
    grid: str = DEFAULT_GRID
    vary: Tuple[str, ...] = ()
    scale: float = 1.0
    increment_mode: str = "adders"
    mode: str = "baremetal"
    events: Optional[Tuple[str, ...]] = None
    use_cache: bool = True
    max_cycles: Optional[int] = DEFAULT_MAX_CYCLES
    deadline_seconds: Optional[float] = None

    def points(self) -> Tuple[GridPoint, ...]:
        return tuple(parse_grid(self.grid, vary=self.vary))

    def validate(self) -> Tuple[GridPoint, ...]:
        try:
            points = self.points()
        except (KeyError, ValueError) as exc:
            raise JobValidationError(f"bad grid spec: {exc}") from exc
        # Every per-point field constraint is enforced by the point
        # jobs themselves; validating the first catches the shared
        # template fields exactly once.
        self._point_job(points[0]).validate()
        return points

    def _point_job(self, point: GridPoint) -> TMAJob:
        return TMAJob(
            workload=self.workload,
            config=point.key,
            scale=self.scale,
            increment_mode=self.increment_mode,
            mode=self.mode,
            events=self.events,
            use_cache=self.use_cache,
            max_cycles=self.max_cycles,
            deadline_seconds=self.deadline_seconds,
        )

    def expand(self) -> Tuple[Tuple[GridPoint, TMAJob], ...]:
        """One (point, job) pair per grid point, in grid order."""
        return tuple((point, self._point_job(point))
                     for point in self.points())

    def grid_key(self) -> str:
        """Canonical identity of the whole grid request.

        Order-independent over the grid points (two clients listing
        the same points differently coalesce) and folded with every
        template option that changes what the point jobs return.
        """
        base = canonical_grid_key(self.workload, self.points(), self.scale)
        digest = hashlib.sha256(base.encode())
        digest.update(self.increment_mode.encode())
        digest.update(self.mode.encode())
        digest.update(repr(self.events).encode())
        digest.update(repr(self.use_cache).encode())
        digest.update(repr(self.max_cycles).encode())
        digest.update(repr(self.deadline_seconds).encode())
        return digest.hexdigest()[:24]

    def to_payload(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "grid": self.grid,
            "vary": list(self.vary),
            "scale": self.scale,
            "increment_mode": self.increment_mode,
            "mode": self.mode,
            "events": list(self.events) if self.events else None,
            "use_cache": self.use_cache,
            "max_cycles": self.max_cycles,
            "deadline_seconds": self.deadline_seconds,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "GridJob":
        if not isinstance(payload, dict):
            raise JobValidationError("grid payload must be a JSON object")
        if "workload" not in payload:
            raise JobValidationError("grid payload requires 'workload'")
        known = {"workload", "grid", "vary", "scale", "increment_mode",
                 "mode", "events", "use_cache", "max_cycles",
                 "deadline_seconds"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise JobValidationError(f"unknown grid fields: {unknown}")
        vary = payload.get("vary") or ()
        if not isinstance(vary, (list, tuple)) \
                or not all(isinstance(v, str) for v in vary):
            raise JobValidationError("'vary' must be a string list")
        events = payload.get("events")
        if events is not None:
            if (not isinstance(events, (list, tuple))
                    or not all(isinstance(e, str) for e in events)):
                raise JobValidationError("'events' must be a string list")
            events = tuple(events)
        try:
            job = cls(
                workload=str(payload["workload"]),
                grid=str(payload.get("grid") or DEFAULT_GRID),
                vary=tuple(vary),
                scale=float(payload.get("scale", 1.0)),
                increment_mode=str(payload.get("increment_mode", "adders")),
                mode=str(payload.get("mode", "baremetal")),
                events=events,
                use_cache=bool(payload.get("use_cache", True)),
                max_cycles=(None if payload.get("max_cycles") is None
                            else int(payload["max_cycles"])),
                deadline_seconds=(
                    None if payload.get("deadline_seconds") is None
                    else float(payload["deadline_seconds"])),
            )
        except (TypeError, ValueError) as exc:
            raise JobValidationError(
                f"malformed grid payload: {exc}") from exc
        job.validate()
        return job


def outcome_payload(outcome: RunOutcome,
                    from_cache: bool = False) -> Dict[str, Any]:
    """JSON-ready result summary for one finished execution."""
    payload: Dict[str, Any] = {
        "status": outcome.status,
        "attempts": outcome.attempts,
        "from_cache": from_cache,
    }
    if outcome.error_class:
        payload["error_class"] = outcome.error_class
        payload["error"] = outcome.error
    # A PMU point reports its counter read-back; every other
    # single-core outcome reports its core result's own totals.
    totals = outcome.measurement or outcome.result
    if totals is not None:
        payload["cycles"] = totals.cycles
        payload["instret"] = totals.instret
        payload["ipc"] = round(totals.ipc, 6)
    tma = outcome.tma
    if tma is not None:
        payload["tma"] = {
            "level1": {k: round(v, 6) for k, v in tma.level1.items()},
            "level2": {k: round(v, 6) for k, v in tma.level2.items()},
            "dominant": tma.dominant_class(),
        }
    result = outcome.result
    if result is not None and result.windowed is not None:
        # A sampled extrapolation must never masquerade as exact.
        payload["sampled"] = result.sampled
        payload["windowed"] = result.windowed
    if outcome.payload is not None:
        payload["multicore"] = outcome.payload
    return payload


@dataclass
class JobRecord:
    """Service-side lifecycle of one submitted job."""

    id: str
    job: TMAJob
    client: str = "anonymous"
    priority: int = DEFAULT_PRIORITY
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    requeues: int = 0
    #: Primary record id this (duplicate) submission coalesced onto,
    #: or None when this record is itself the executing primary.
    coalesced_with: Optional[str] = None
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None

    @property
    def job_key(self) -> str:
        return self.job.job_key()

    @property
    def done(self) -> bool:
        return self.state in ("done", "failed", "rejected", "quarantined")

    def latency(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "id": self.id,
            "job": self.job.to_payload(),
            "job_key": self.job_key,
            "client": self.client,
            "priority": self.priority,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "requeues": self.requeues,
        }
        if self.coalesced_with:
            payload["coalesced_with"] = self.coalesced_with
        if self.error:
            payload["error"] = self.error
        if self.result is not None:
            payload["result"] = self.result
        latency = self.latency()
        if latency is not None:
            payload["latency_seconds"] = round(latency, 6)
        return payload
