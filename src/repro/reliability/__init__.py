"""Reliability layer: invariant checking, detection and recovery.

The subsystem that proves the rest of the pipeline trustworthy:

- :mod:`repro.reliability.errors` — the structured error taxonomy
  every check raises.
- :mod:`repro.reliability.invariants` — the TMA invariant catalog
  (slot conservation, PMU-vs-core agreement, multiplex agreement,
  scale monotonicity) raising a structured error taxonomy.
- :mod:`repro.reliability.retry` — the single
  :class:`RetryPolicy` (capped exponential backoff, deterministic
  jitter, deadline awareness) shared by the runner, the worker pool,
  and the service client.
- :mod:`repro.reliability.breaker` — per-key
  :class:`CircuitBreaker` registry (closed / open / half-open) so
  repeatedly-failing pairs are quarantined instead of re-executed.
- :mod:`repro.reliability.request` — the run requests
  (:class:`TMAJob`, :class:`MulticoreJob`): frozen, picklable,
  validated values with their cache and dedup keys.
- :mod:`repro.reliability.runner` — the one execution seam,
  :meth:`ResilientRunner.run_one`: cache lookup with quarantine,
  deadline, watchdog, invariant check, policy-driven retry and cache
  store, for every kind of request.

Faults are injected by :mod:`repro.chaos` alone: its model faults
(:mod:`repro.chaos.model`) break the counters, the trace and the core,
and its campaign (``repro-tma chaos``) demands that the checker here
refutes every one of them.
"""

from .breaker import BreakerState, CircuitBreaker
from .errors import (CacheIntegrityError, CounterCorruption,
                     DeadlineExceeded, ReliabilityError, RunTimeout,
                     SlotConservationViolation)
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy
from .invariants import EXACT_INCREMENT_MODES, TmaInvariantChecker
from .request import (DEFAULT_MAX_CYCLES, JobValidationError, MulticoreJob,
                      RunRequest, TMAJob)
from .runner import ResilientRunner, RunOutcome

__all__ = [
    "BreakerState",
    "CacheIntegrityError",
    "CircuitBreaker",
    "DEFAULT_RETRY_POLICY",
    "CounterCorruption",
    "DEFAULT_MAX_CYCLES",
    "DeadlineExceeded",
    "EXACT_INCREMENT_MODES",
    "JobValidationError",
    "MulticoreJob",
    "ReliabilityError",
    "ResilientRunner",
    "RetryPolicy",
    "RunOutcome",
    "RunRequest",
    "RunTimeout",
    "SlotConservationViolation",
    "TMAJob",
    "TmaInvariantChecker",
]
