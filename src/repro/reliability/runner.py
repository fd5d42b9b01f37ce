"""Resilient runner: the one seam every run request passes through.

:meth:`ResilientRunner.run_one` executes a run request of any kind — a
:class:`~repro.reliability.request.TMAJob` (a PMU point, or a windowed
or sampled run) or a :class:`~repro.reliability.request.MulticoreJob`
(a scenario) — in one order:

1. **cache lookup with quarantine** (:func:`lookup`): a damaged entry
   is deleted and labeled on the outcome; an intact one is served when
   it is an exact stand-in for a run (``job.servable()``);
2. a wall-clock **deadline** check before each attempt, so a request
   nobody is still waiting for fails fast with
   :class:`~repro.isa.errors.DeadlineExceeded`;
3. the run under a **cycle watchdog** (the job's ``max_cycles`` for a
   point and for every window; :data:`DEFAULT_MAX_CYCLES` for every
   scenario core), so a hung or truncated run raises
   :class:`~repro.isa.errors.RunTimeout` instead of spinning;
4. the **invariant check** of
   :class:`~repro.reliability.invariants.TmaInvariantChecker`:
   ``check_measurement`` for a PMU point, ``check_core_result`` for a
   stitched windowed result and for each scenario core;
5. **retry** per the shared :class:`~repro.reliability.retry.RetryPolicy`
   (default: 3 attempts, no delay) — except a failure that another
   attempt would only repeat (the watchdog, the instruction budget, a
   request that fails validation), which fails once;
6. a **cache store** of the checked result;
7. the trace-cache counter delta on the outcome.

A request that fails every attempt comes back as a structured
:class:`RunOutcome` with its error class, never as an exception.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..core.tma import TmaResult, compute_tma
from ..cores.base import CoreResult
from ..isa.errors import CacheIntegrityError, ExecutionError, RunTimeout
from ..pmu.harness import Measurement, PerfHarness
from ..tools import cache
from ..workloads import trace_cache
from .invariants import TmaInvariantChecker
from .request import (DEFAULT_MAX_CYCLES, JobValidationError, MulticoreJob,
                      RunRequest)
from .retry import RetryPolicy

__all__ = ["DEFAULT_MAX_CYCLES", "ResilientRunner", "RunOutcome", "lookup"]

#: Per-window progress sink of a windowed job (see ``run_windowed``).
Progress = Optional[Callable[[str], None]]

_CHECKER = TmaInvariantChecker()

#: Failures a request repeats identically on every attempt: the cycle
#: watchdog, the functional instruction budget (and any other fault of
#: the program itself), and a request that fails validation, e.g. an
#: event its core does not have.  Retrying one only multiplies its cost.
_DETERMINISTIC = (RunTimeout, ExecutionError, JobValidationError)


def _repeats(error: Optional[BaseException]) -> bool:
    """True when another attempt would fail the same way.

    That is when *error*, or an error it was raised from (a scenario
    wraps its core's error), is one of the deterministic failures.
    """
    while error is not None:
        if isinstance(error, _DETERMINISTIC):
            return True
        error = error.__cause__
    return False


@dataclass
class RunOutcome:
    """What happened to one run request."""

    workload: str
    config_name: str
    status: str = "ok"                  # "ok" | "failed"
    attempts: int = 0
    #: The request's cache entry was damaged, deleted and re-run.
    quarantined: bool = False
    error_class: Optional[str] = None
    error: Optional[str] = None
    #: The PMU read-back of a (non-windowed) point run.
    measurement: Optional[Measurement] = None
    #: The core result of every single-core outcome (run or served).
    result: Optional[CoreResult] = None
    tma: Optional[TmaResult] = None
    #: Trace-memoization counter movement attributed to this run
    #: (mem_hits / disk_hits / misses), so pool workers and service
    #: jobs can report cache behaviour across process boundaries.
    trace_cache: Optional[Dict[str, int]] = None
    #: A multicore scenario's result document (per-core results live
    #: inside it); :func:`repro.service.job.outcome_payload` passes it
    #: through under its own key.
    payload: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def lookup(job: RunRequest
           ) -> Tuple[Optional[RunOutcome], Optional[CacheIntegrityError]]:
    """The seam's lookup step: ``(served outcome, quarantined damage)``.

    Reads *job*'s cache entry, deleting it when it is damaged (the
    error comes back so the caller can label it), and serves an intact
    entry only where ``job.servable()`` — a cached point stands in for
    an exact run, never for a ``distributed``/``linux``/event-list
    measurement.  A ``use_cache=False`` job reads nothing.
    """
    if not job.use_cache:
        return None, None
    served = RunOutcome(workload=job.workload, config_name=job.config)
    if isinstance(job, MulticoreJob):
        payload, damage = cache.load_payload_or_quarantine(job.cache_key())
        if payload is None:
            return None, damage
        served.payload = payload
        return served, None
    result, damage = cache.load_or_quarantine(job.cache_key())
    if result is None or not job.servable():
        return None, damage
    served.result = result
    served.tma = compute_tma(result)
    return served, None


class ResilientRunner:
    """Executes run requests with watchdog, checks, retry and cache.

    ``retry_policy`` sets the attempt schedule (default: 3 attempts, no
    delay); ``clock`` and ``sleep`` are injectable so tests never wait.
    ``fault_injector`` (a :class:`repro.chaos.FaultInjector`) breaks
    every PMU point this runner measures; its runs neither read nor
    write the result cache, since a faulted result is not the model's.
    """

    def __init__(self, retry_policy: Optional[RetryPolicy] = None,
                 fault_injector=None,
                 clock: Callable[[], float] = time.time,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.retry_policy = retry_policy or RetryPolicy()
        self.fault_injector = fault_injector
        self.clock = clock
        self.sleep = sleep

    def run_one(self, job: RunRequest, deadline: Optional[float] = None,
                progress: Progress = None) -> RunOutcome:
        """Run *job* through the seam; see the module docstring.

        *deadline* is an absolute ``time.time()`` epoch checked before
        every attempt.  *progress* receives per-window ticks of a
        windowed job.
        """
        cache_before = trace_cache.stats()
        use_cache = job.use_cache and self.fault_injector is None
        outcome = RunOutcome(workload=job.workload, config_name=job.config)
        if use_cache:
            served, damage = lookup(job)
            if served is not None:
                served.trace_cache = trace_cache.stats_delta(cache_before)
                return served
            if damage is not None:
                outcome.quarantined = True
                outcome.error_class = type(damage).__name__
                outcome.error = str(damage)

        def attempt() -> None:
            outcome.attempts += 1
            self._attempt(job, outcome, progress)

        try:
            self.retry_policy.call(
                attempt, salt=f"{job.workload}:{job.config}",
                deadline=deadline, sleep=self.sleep, clock=self.clock,
                give_up=_repeats)
        except Exception as exc:  # noqa: BLE001 - reported on the outcome
            outcome.status = "failed"
            outcome.error_class = type(exc).__name__
            outcome.error = str(exc)
        else:
            if use_cache and outcome.payload is not None:
                cache.store_payload(job.cache_key(), outcome.payload)
            elif use_cache and outcome.result is not None:
                cache.store(job.cache_key(), outcome.result)
        outcome.trace_cache = trace_cache.stats_delta(cache_before)
        return outcome

    def _attempt(self, job: RunRequest, outcome: RunOutcome,
                 progress: Progress) -> None:
        """One watched, checked run of *job*; fills *outcome*."""
        job.validate()
        if isinstance(job, MulticoreJob):
            from ..multicore import run_scenario

            run = run_scenario(job.resolved(), max_cycles=DEFAULT_MAX_CYCLES)
            for core in run.cores:
                _CHECKER.check_core_result(core.result)
            outcome.payload = run.to_payload()
            return
        config = job.config_obj()
        if job.windows is not None:
            from ..cores.windowed import run_windowed

            # The job already runs in a service worker (or the caller's
            # thread), so its windows run serially, never in a nested
            # pool; the seam owns the cache, so the engine skips it.
            result = run_windowed(
                job.workload, config, windows=job.windows, scale=job.scale,
                warmup=job.warmup, sampled=job.sampled, use_cache=False,
                workers=1, progress=progress or False,
                max_cycles=job.max_cycles)
            _CHECKER.check_core_result(result)
            outcome.result = result
            outcome.tma = compute_tma(result)
            return
        harness = PerfHarness(core=config.core,
                              increment_mode=job.increment_mode,
                              mode=job.mode,
                              fault_injector=self.fault_injector)
        measurement = harness.measure(
            job.workload, config,
            event_names=list(job.events) if job.events else None,
            scale=job.scale, max_cycles=job.max_cycles)
        _CHECKER.check_measurement(measurement)
        outcome.measurement = measurement
        outcome.result = measurement.result
        outcome.tma = compute_tma(measurement)
