"""Exception types raised by the ISA layer.

This module also hosts the bottom of the reliability-error taxonomy
(:class:`ReliabilityError` and the subclasses raised below the
:mod:`repro.reliability` package).  They live here because this module
is an import leaf: the core models and the result cache need to raise
``RunTimeout``/``CacheIntegrityError`` without importing the
reliability package (which itself imports the cores and the PMU).
"""

from __future__ import annotations

from typing import Any, Optional


class IsaError(Exception):
    """Base class for all ISA-layer errors."""


class AssemblerError(IsaError):
    """Raised when assembly source cannot be parsed or resolved."""

    def __init__(self, message: str, line: int = -1) -> None:
        self.line = line
        if line >= 0:
            message = f"line {line}: {message}"
        super().__init__(message)


class ExecutionError(IsaError):
    """Raised when the functional executor encounters an illegal state."""


class MemoryError_(IsaError):
    """Raised on invalid memory accesses (misalignment, bad address)."""


class ReliabilityError(Exception):
    """Base class of the reliability-violation taxonomy.

    Every violation carries a structured payload so tooling (the
    resilient runner, the fault-injection campaign report) can classify
    failures without parsing message strings:

    - ``invariant``: short name of the violated invariant or guard,
    - ``workload`` / ``config``: the run the violation occurred in,
    - ``observed`` / ``expected``: the offending values, when known.
    """

    def __init__(self, message: str, *, invariant: Optional[str] = None,
                 workload: Optional[str] = None,
                 config: Optional[str] = None,
                 observed: Any = None, expected: Any = None) -> None:
        self.invariant = invariant
        self.workload = workload
        self.config = config
        self.observed = observed
        self.expected = expected
        parts = [message]
        if invariant:
            parts.append(f"[invariant={invariant}]")
        if workload:
            parts.append(f"[workload={workload}"
                         + (f" config={config}]" if config else "]"))
        if observed is not None or expected is not None:
            parts.append(f"(observed={observed!r}, expected={expected!r})")
        super().__init__(" ".join(parts))


class RunTimeout(ReliabilityError):
    """A core run exceeded its cycle budget (hung or truncated trace)."""


class CacheIntegrityError(ReliabilityError):
    """A disk-cache entry failed checksum or schema validation."""


class DeadlineExceeded(ReliabilityError):
    """A run's wall-clock deadline lapsed before (or between) attempts.

    Deadlines propagate from the CLI or a service job into
    :meth:`ResilientRunner.run_one
    <repro.reliability.runner.ResilientRunner.run_one>`, which checks
    them before every attempt: a request that cannot start (or
    restart) before its deadline fails with this error instead of
    burning pool time on work nobody is still waiting for.
    """
