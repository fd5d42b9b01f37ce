"""Cycle-lockstep execution of several core models in one process.

The core models are single-threaded simulators with a per-cycle hook
seam (:class:`~repro.cores.base.CoreFaultHook`, consulted exactly once
at the top of every simulated cycle).  Lockstep
reuses that seam: each core runs on its own thread with a
:class:`TurnstileHook` attached, and the :class:`CycleTurnstile` lets
exactly one core simulate one cycle at a time, in a deterministic
arbitration order — so shared-uncore state (bus cursor, shared LRU) is
mutated in a reproducible global cycle order, independent of OS thread
scheduling.

Arbitration decides who goes first *within* a cycle:

- ``fcfs``: fixed priority by core index (core 0 always first);
- ``round-robin``: the first slot rotates each cycle, so no requestor
  is structurally favored at the shared L2/bus.

A core may simulate cycle ``c`` once every still-running peer that
precedes it in cycle ``c``'s order has *finished* cycle ``c`` (arrived
at ``c+1``) and every peer that follows it has at least *arrived* at
``c``.  Finished or failed cores drop out of the condition, and a
failure wakes every waiter with :class:`LockstepError` instead of
deadlocking.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

#: Effectively-infinite cycle marker for finished cores.
_DONE = 1 << 62

ARBITRATIONS = ("round-robin", "fcfs")


class LockstepError(RuntimeError):
    """A lockstep run lost a peer (error or hang) and cannot continue."""


class CycleTurnstile:
    """Serializes *n* core threads into a deterministic cycle order."""

    def __init__(self, n_cores: int, arbitration: str = "round-robin",
                 timeout: float = 300.0) -> None:
        if arbitration not in ARBITRATIONS:
            raise ValueError(
                f"unknown arbitration {arbitration!r}; "
                f"expected one of {ARBITRATIONS}")
        self.n_cores = n_cores
        self.arbitration = arbitration
        self.timeout = timeout
        self._cond = threading.Condition()
        #: ``ready[i] == c`` means core *i* has completed every cycle
        #: below *c* (it has arrived at its ``stall_cycle(c)`` call).
        self._ready: List[int] = [0] * n_cores
        self._done: List[bool] = [False] * n_cores
        self._failure: Optional[str] = None

    # ------------------------------------------------------------------

    def _priority(self, core: int, cycle: int) -> int:
        """Smaller runs earlier within *cycle*."""
        if self.arbitration == "round-robin":
            return (core - cycle) % self.n_cores
        return core

    def _may_run(self, core: int, cycle: int) -> bool:
        mine = self._priority(core, cycle)
        for other in range(self.n_cores):
            if other == core or self._done[other]:
                continue
            if self._priority(other, cycle) < mine:
                need = cycle + 1  # earlier peer must have finished c
            else:
                need = cycle      # later peer must have arrived at c
            if self._ready[other] < need:
                return False
        return True

    # ------------------------------------------------------------------

    def wait_turn(self, core: int, cycle: int) -> None:
        """Block until *core* may simulate *cycle*."""
        with self._cond:
            if self._ready[core] < cycle:
                self._ready[core] = cycle
                self._cond.notify_all()
            deadline = time.monotonic() + self.timeout
            while not self._may_run(core, cycle):
                if self._failure is not None:
                    raise LockstepError(self._failure)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise LockstepError(
                        f"core {core} waited over {self.timeout:.0f}s at "
                        f"cycle {cycle}; peers ready={self._ready}, "
                        f"done={self._done}")
                self._cond.wait(remaining)
            if self._failure is not None:
                raise LockstepError(self._failure)

    def finish(self, core: int) -> None:
        """Mark *core* as retired from the turnstile (idempotent)."""
        with self._cond:
            self._done[core] = True
            self._ready[core] = _DONE
            self._cond.notify_all()

    def fail(self, core: int, exc: BaseException) -> None:
        """Record a peer failure and release every waiter."""
        with self._cond:
            if self._failure is None:
                self._failure = (
                    f"lockstep peer {core} failed: "
                    f"{type(exc).__name__}: {exc}")
            self._done[core] = True
            self._ready[core] = _DONE
            self._cond.notify_all()


class TurnstileHook:
    """:class:`CoreFaultHook` adapter: blocks for the turn, never stalls.

    Attached as ``core.fault_hook``, it gets ``stall_cycle`` called
    exactly once per simulated cycle, at the top of the cycle loop's
    per-cycle hook, which is the turnstile's admission point.
    """

    def __init__(self, turnstile: CycleTurnstile, core: int) -> None:
        self.turnstile = turnstile
        self.core = core

    def stall_cycle(self, cycle: int) -> bool:
        self.turnstile.wait_turn(self.core, cycle)
        return False
