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
- :mod:`repro.reliability.runner` — a resilient runner for one
  (workload, config) pair with watchdogs, policy-driven retry,
  deadlines, circuit breaking and cache quarantine.

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
from .runner import DEFAULT_MAX_CYCLES, ResilientRunner, RunOutcome

__all__ = [
    "BreakerState",
    "CacheIntegrityError",
    "CircuitBreaker",
    "DEFAULT_RETRY_POLICY",
    "CounterCorruption",
    "DEFAULT_MAX_CYCLES",
    "DeadlineExceeded",
    "EXACT_INCREMENT_MODES",
    "ReliabilityError",
    "ResilientRunner",
    "RetryPolicy",
    "RunOutcome",
    "RunTimeout",
    "SlotConservationViolation",
    "TmaInvariantChecker",
]
