"""Resilient batch runner: sweeps that degrade instead of dying.

:class:`ResilientRunner` wraps :meth:`PerfHarness.measure` over a
(workload x config) grid with the guard rails a production-scale sweep
needs:

- a per-run cycle-budget watchdog (a hung or truncated run raises
  :class:`~repro.isa.errors.RunTimeout` instead of spinning),
- invariant checking of every measurement through
  :class:`~repro.reliability.invariants.TmaInvariantChecker`,
- bounded retry through the shared
  :class:`~repro.reliability.retry.RetryPolicy` (capped exponential
  backoff, deterministic jitter, injectable sleeper),
- wall-clock **deadline propagation**: a deadline stamped by the CLI or
  a service job is checked before every attempt, so a pair nobody is
  still waiting for fails fast with
  :class:`~repro.isa.errors.DeadlineExceeded` instead of burning time,
- an optional per-(workload, config) **circuit breaker**: a pair that
  keeps failing trips open and is reported ``quarantined`` instead of
  re-executing (see :mod:`repro.reliability.breaker`),
- quarantine of poisoned cache entries — verified, deleted, re-run —
  via the checksummed result cache,
- partial-result reporting: one bad pair marks its own outcome failed
  and the sweep continues.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..core.tma import TmaResult, compute_tma
from ..cores.base import BoomConfig, RocketConfig
from ..isa.errors import DeadlineExceeded
from ..pmu.harness import Measurement, PerfHarness
from ..tools import cache
from ..workloads import trace_cache
from .breaker import CircuitBreaker
from .errors import CacheIntegrityError, ReliabilityError
from .invariants import TmaInvariantChecker
from .retry import RetryPolicy

CoreConfig = Union[RocketConfig, BoomConfig]

#: Default per-run watchdog: generous for every registered workload at
#: the scales the sweeps use, tiny next to a genuine hang.
DEFAULT_MAX_CYCLES = 2_000_000


@dataclass
class RunOutcome:
    """What happened to one (workload, config) pair of a sweep.

    ``status == "quarantined"`` means the pair never executed because
    its circuit breaker was open — the pair is skipped, not failed on
    its own merits this time around.
    """

    workload: str
    config_name: str
    status: str = "ok"                  # "ok" | "failed" | "quarantined"
    attempts: int = 0
    quarantined: bool = False
    error_class: Optional[str] = None
    error: Optional[str] = None
    measurement: Optional[Measurement] = None
    tma: Optional[TmaResult] = None
    #: Trace-memoization counter movement attributed to this run
    #: (mem_hits / disk_hits / misses), so parallel shards and service
    #: jobs can report cache behaviour across process boundaries.
    trace_cache: Optional[Dict[str, int]] = None
    #: Structured result document for job kinds whose output is not a
    #: Measurement+TMA pair (multicore scenario runs ship their whole
    #: payload here; :func:`repro.service.job.outcome_payload` passes
    #: it through under its own key).
    payload: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class SweepReport:
    """Partial-result report of a whole grid sweep."""

    outcomes: List[RunOutcome] = field(default_factory=list)
    quarantined_keys: List[str] = field(default_factory=list)

    @property
    def completed(self) -> List[RunOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> List[RunOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def quarantined_pairs(self) -> List[RunOutcome]:
        """Pairs skipped because their circuit breaker was open."""
        return [o for o in self.outcomes if o.status == "quarantined"]

    def trace_cache_stats(self) -> Dict[str, int]:
        """Trace-memoization counters summed across all outcomes."""
        total: Dict[str, int] = {}
        for outcome in self.outcomes:
            for key, value in (outcome.trace_cache or {}).items():
                total[key] = total.get(key, 0) + value
        return total

    @property
    def trace_cache_hit_rate(self) -> float:
        return trace_cache.hit_rate(self.trace_cache_stats())

    def summary(self) -> str:
        lines = [f"sweep: {len(self.completed)}/{len(self.outcomes)} "
                 f"pairs completed, {len(self.quarantined_keys)} cache "
                 f"entries quarantined"]
        for outcome in self.outcomes:
            if outcome.status == "quarantined":
                flag = "OPEN"
            else:
                flag = "ok " if outcome.ok else "FAIL"
            extra = ""
            if outcome.quarantined:
                extra += " [quarantined+rerun]"
            if outcome.error_class:
                extra += f" [{outcome.error_class}: {outcome.error}]"
            lines.append(f"  {flag} {outcome.workload:<14s} "
                         f"{outcome.config_name:<14s} "
                         f"attempts={outcome.attempts}{extra}")
        return "\n".join(lines)


class ResilientRunner:
    """Fault-tolerant (workload x config) measurement sweeps.

    Retries follow ``retry_policy`` (the shared
    :class:`~repro.reliability.retry.RetryPolicy`); the legacy
    ``max_attempts`` / ``backoff_base`` arguments build an equivalent
    policy when none is injected, so existing callers keep their exact
    behaviour.  ``sleep`` is injectable for testing.

    ``deadline`` is an absolute ``time.time()`` epoch: once it lapses,
    remaining attempts (and remaining grid pairs) fail fast with
    :class:`~repro.isa.errors.DeadlineExceeded`.  ``breaker`` is an
    optional :class:`~repro.reliability.breaker.CircuitBreaker`; pairs
    whose circuit is open are reported ``quarantined`` without
    executing.
    """

    def __init__(self, harness: Optional[PerfHarness] = None,
                 checker: Optional[TmaInvariantChecker] = None,
                 event_names: Optional[Sequence[str]] = None,
                 scale: float = 1.0,
                 max_attempts: int = 3,
                 max_cycles: Optional[int] = DEFAULT_MAX_CYCLES,
                 backoff_base: float = 0.0,
                 use_cache: bool = True,
                 retry_policy: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 deadline: Optional[float] = None,
                 clock: Callable[[], float] = time.time,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if retry_policy is None:
            # Legacy-compatible schedule: backoff_base doubling per
            # retry, effectively uncapped, no jitter.
            retry_policy = RetryPolicy(max_attempts=max_attempts,
                                       base_delay=backoff_base,
                                       max_delay=3600.0,
                                       multiplier=2.0)
        self.retry_policy = retry_policy
        self.breaker = breaker
        self.deadline = deadline
        self.clock = clock
        self.harness = harness or PerfHarness()
        self.checker = checker or TmaInvariantChecker()
        self.event_names = list(event_names) if event_names else None
        self.scale = scale
        # Mirror the policy so RunnerSpec.from_runner (and old callers
        # reading these attributes) keep seeing the effective values.
        self.max_attempts = retry_policy.max_attempts
        self.max_cycles = max_cycles
        self.backoff_base = retry_policy.base_delay
        self.use_cache = use_cache
        self.sleep = sleep

    # ------------------------------------------------------------------

    def _harness_for(self, config: CoreConfig) -> PerfHarness:
        """The configured harness, re-targeted if the core differs."""
        if self.harness.core == config.core:
            return self.harness
        return PerfHarness(core=config.core,
                           increment_mode=self.harness.increment_mode,
                           mode=self.harness.mode,
                           fault_injector=self.harness.fault_injector)

    def _events_for(self, config: CoreConfig) -> Optional[Sequence[str]]:
        """Configured event names, but only for the matching core."""
        if self.event_names is None or self.harness.core == config.core:
            return self.event_names
        return None

    def _quarantine_if_poisoned(self, workload: str, config: CoreConfig,
                                outcome: RunOutcome,
                                report: Optional[SweepReport]) -> None:
        """Verify the pair's cache entry; delete it if it is poisoned."""
        if not self.use_cache:
            return
        key = cache.cache_key(workload, self.scale, config)
        try:
            cache.verify_entry(key)
        except CacheIntegrityError as exc:
            cache.quarantine(key)
            outcome.quarantined = True
            outcome.error_class = type(exc).__name__
            outcome.error = str(exc)
            if report is not None:
                report.quarantined_keys.append(key)

    def pair_key(self, workload: str, config: CoreConfig) -> str:
        """Circuit-breaker / jitter-salt key for one grid pair."""
        return f"{workload}:{config.name}"

    def run_one(self, workload: str, config: CoreConfig,
                report: Optional[SweepReport] = None) -> RunOutcome:
        """Measure one pair with watchdog, validation, and retries."""
        outcome = RunOutcome(workload=workload, config_name=config.name)
        pair = self.pair_key(workload, config)
        if self.breaker is not None and not self.breaker.allow(pair):
            outcome.status = "quarantined"
            outcome.error_class = "CircuitOpen"
            outcome.error = (f"circuit open for {pair} "
                             f"({self.breaker.state(pair)}); skipped")
            return outcome
        self._quarantine_if_poisoned(workload, config, outcome, report)
        harness = self._harness_for(config)
        event_names = self._events_for(config)
        cache_before = trace_cache.stats()
        last_error: Optional[ReliabilityError] = None
        for attempt in range(self.retry_policy.max_attempts):
            outcome.attempts = attempt + 1
            if attempt:
                pause = self.retry_policy.delay(
                    attempt - 1, salt=pair,
                    deadline=self.deadline, now=self.clock())
                if pause > 0:
                    self.sleep(pause)
            try:
                self.retry_policy.check_deadline(
                    self.deadline, now=self.clock(),
                    what=f"{pair} attempt {attempt + 1}")
                measurement = harness.measure(
                    workload, config, event_names=event_names,
                    scale=self.scale, max_cycles=self.max_cycles)
                self.checker.check_measurement(measurement)
            except DeadlineExceeded as exc:
                # No point retrying a lapsed deadline.
                last_error = exc
                break
            except ReliabilityError as exc:
                last_error = exc
                continue
            outcome.status = "ok"
            outcome.measurement = measurement
            outcome.tma = compute_tma(measurement)
            if not outcome.quarantined:
                outcome.error_class = None
                outcome.error = None
            if self.use_cache and measurement.result is not None:
                key = cache.cache_key(workload, self.scale, config)
                cache.store(key, measurement.result)
            outcome.trace_cache = trace_cache.stats_delta(cache_before)
            if self.breaker is not None:
                self.breaker.record_success(pair)
            return outcome
        outcome.status = "failed"
        outcome.error_class = type(last_error).__name__
        outcome.error = str(last_error)
        outcome.trace_cache = trace_cache.stats_delta(cache_before)
        if self.breaker is not None:
            self.breaker.record_failure(pair)
        return outcome

    def run_grid(self, workloads: Sequence[str],
                 configs: Sequence[CoreConfig]) -> SweepReport:
        """Sweep the full grid; failures degrade, never abort."""
        report = SweepReport()
        for workload in workloads:
            for config in configs:
                report.outcomes.append(
                    self.run_one(workload, config, report))
        return report
