"""The one retry policy: capped exponential backoff, deterministic jitter.

Before this module, three ad-hoc retry loops had grown independently —
the resilient runner's attempt loop, the worker pool's
rebuild-and-resubmit, and the service client's 429 loop — each with its
own cap, its own backoff shape, and no jitter.  :class:`RetryPolicy` is
the single value object they all share now:

- **Capped exponential backoff.**  Attempt ``k`` (0-based) sleeps
  ``min(base_delay * multiplier**k, max_delay)`` before retrying.
- **Deterministic jitter.**  Real deployments need jitter so a thousand
  clients do not retry in lockstep; tests and chaos campaigns need the
  exact same schedule every run.  Jitter here is a pure function of
  ``(seed, salt, attempt)``, so a seeded policy produces an identical
  delay sequence on every run while distinct salts (e.g. per job key)
  still de-correlate from each other.
- **Deadline awareness.**  :meth:`delay` never schedules a sleep past a
  caller-supplied wall-clock deadline, and :meth:`call` raises
  :class:`~repro.isa.errors.DeadlineExceeded` instead of starting an
  attempt that no caller is still waiting for.
- **Injectable clock and sleeper**, so unit tests never really sleep.

The policy is frozen (hashable, picklable): it can cross a process
boundary with the work it governs.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Tuple, Type

from ..isa.errors import DeadlineExceeded

__all__ = ["RetryPolicy", "DeadlineExceeded"]


def _jitter_fraction(seed: int, salt: str, attempt: int) -> float:
    """Uniform [0, 1) fraction, a pure function of its arguments."""
    digest = hashlib.sha256(
        f"{seed}:{salt}:{attempt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic, seeded jitter."""

    #: Total attempts (first try included); >= 1.
    max_attempts: int = 3
    #: Backoff before the first retry (seconds); 0 disables sleeping.
    base_delay: float = 0.0
    #: Hard cap on any single backoff sleep.
    max_delay: float = 2.0
    #: Exponential growth factor per retry.
    multiplier: float = 2.0
    #: Fraction of the delay randomized (0 = none, 0.5 = +/-50%).
    jitter: float = 0.0
    #: Seed for the deterministic jitter stream.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError("jitter must be in [0, 1]")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    # ------------------------------------------------------------------

    def delay(self, attempt: int, salt: str = "",
              deadline: Optional[float] = None,
              now: Optional[float] = None) -> float:
        """Backoff before retry *attempt* (0-based retry index).

        The returned delay is clamped to ``max_delay``, jittered
        deterministically from ``(seed, salt, attempt)``, and never
        extends past *deadline* (when given, with *now* as the current
        wall-clock reading).
        """
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        delay = min(self.base_delay * (self.multiplier ** attempt),
                    self.max_delay)
        if delay > 0 and self.jitter:
            fraction = _jitter_fraction(self.seed, salt, attempt)
            # Symmetric jitter: delay * (1 +/- jitter).
            delay *= 1.0 + self.jitter * (2.0 * fraction - 1.0)
        if deadline is not None:
            now = time.time() if now is None else now
            delay = max(0.0, min(delay, deadline - now))
        return delay

    def delays(self, salt: str = "") -> Iterator[float]:
        """The full deterministic backoff schedule (len = retries)."""
        for attempt in range(self.max_attempts - 1):
            yield self.delay(attempt, salt=salt)

    def salted(self, salt_seed: int) -> "RetryPolicy":
        """A copy whose jitter stream is re-seeded (e.g. per client)."""
        return replace(self, seed=salt_seed)

    # ------------------------------------------------------------------

    def check_deadline(self, deadline: Optional[float],
                       now: Optional[float] = None,
                       what: str = "run") -> None:
        """Raise :class:`DeadlineExceeded` when *deadline* has lapsed."""
        if deadline is None:
            return
        now = time.time() if now is None else now
        if now >= deadline:
            raise DeadlineExceeded(
                f"deadline lapsed before {what} could start",
                invariant="deadline",
                observed=round(now, 3), expected=round(deadline, 3))

    def call(self, fn: Callable[[], object],
             retry_on: Tuple[Type[BaseException], ...] = (Exception,),
             salt: str = "",
             deadline: Optional[float] = None,
             sleep: Callable[[float], None] = time.sleep,
             clock: Callable[[], float] = time.time,
             on_retry: Optional[Callable[[int, BaseException], None]] = None,
             give_up: Optional[Callable[[BaseException], bool]] = None):
        """Run *fn* under this policy; returns its first success.

        Exceptions in *retry_on* are retried (with backoff) up to
        ``max_attempts`` total tries; the final failure re-raises.
        An exception *give_up* returns True for re-raises at once, even
        where *retry_on* covers it: a failure another try would repeat.
        A lapsed *deadline* raises :class:`DeadlineExceeded` instead of
        starting another attempt.
        """
        last: Optional[BaseException] = None
        for attempt in range(self.max_attempts):
            if attempt:
                pause = self.delay(attempt - 1, salt=salt,
                                   deadline=deadline, now=clock())
                if pause > 0:
                    sleep(pause)
            self.check_deadline(deadline, now=clock(),
                                what=f"attempt {attempt + 1}")
            try:
                return fn()
            except retry_on as exc:  # noqa: PERF203 - retry loop
                if give_up is not None and give_up(exc):
                    raise
                last = exc
                if on_retry is not None:
                    on_retry(attempt, exc)
        assert last is not None
        raise last


#: Default policy used where callers do not inject one: three attempts,
#: no sleeping (the simulator's transient failures are injected, so
#: tests stay instant); services override with real delays.
DEFAULT_RETRY_POLICY = RetryPolicy()
