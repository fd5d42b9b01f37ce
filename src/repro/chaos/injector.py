"""Chaos injection runtime: the hooks the real seams consult.

Production code never imports :class:`~repro.chaos.plan.ChaosPlan`
directly; it calls the tiny hook functions here, every one of which is
a no-op costing one global-read when no plan is active.  The seams:

- :func:`maybe_kill_worker` — pool workers (every
  :func:`repro.tools.pool.fan_out` task, and first executions of
  ``repro.service.workers`` jobs) call this before executing a task;
  an injected kill is ``os._exit(23)``, indistinguishable from a
  SIGKILL'd/OOM-killed worker from the parent's point of view.
- :func:`mangle_write` — the on-disk store's one write path routes
  every sealed entry, result or trace, through this before writing;
  injected faults truncate the bytes, flip a bit, or raise ``ENOSPC``.
- :func:`client_fault` — the service HTTP client consults this before
  each request; injected faults simulate connection-refused /
  connection-reset (as ``URLError``-shaped failures) or add delay.
- :func:`maybe_stall` — the scheduler dispatch path calls this;
  injected stalls sleep briefly, shaking out ordering assumptions.

Activation: :func:`activate` installs a plan process-globally (and into
``os.environ`` so pool workers inherit it); :func:`activate_from_env`
is called by ``worker_init`` inside fresh pool workers.  The
:func:`active` context manager scopes a plan to a block and always
restores the previous state.  Per-process fault counters are kept for
logs and tests; campaign *reports* only use plan-enumerated counts,
which are deterministic.
"""

from __future__ import annotations

import errno
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from .plan import PLAN_ENV, ChaosPlan

_lock = threading.Lock()
_active_plan: Optional[ChaosPlan] = None
_counters: Dict[str, int] = {}

#: Exit code used for injected worker kills, so post-mortems can tell
#: them from real crashes.
KILL_EXIT_CODE = 23


class ChaosConnectionError(OSError):
    """Simulated connection-refused/reset raised at the client seam."""

    def __init__(self, flavor: str, key: str) -> None:
        super().__init__(errno.ECONNREFUSED if flavor == "refuse"
                         else errno.ECONNRESET,
                         f"chaos-injected connection {flavor} [{key}]")
        self.flavor = flavor
        self.key = key


def _bump(name: str) -> None:
    with _lock:
        _counters[name] = _counters.get(name, 0) + 1


def counters() -> Dict[str, int]:
    """Per-process injected-fault counters (diagnostics, not reports)."""
    with _lock:
        return dict(_counters)


def reset_counters() -> None:
    with _lock:
        _counters.clear()


# ----------------------------------------------------------------------
# Activation


def plan() -> Optional[ChaosPlan]:
    """The process's active plan (None = chaos off)."""
    return _active_plan


def activate(new_plan: ChaosPlan, export_env: bool = True) -> None:
    """Install *new_plan* globally; optionally export it to children."""
    global _active_plan
    with _lock:
        _active_plan = new_plan
    if export_env:
        os.environ[PLAN_ENV] = new_plan.to_json()


def deactivate() -> None:
    """Turn chaos off and scrub the environment."""
    global _active_plan
    with _lock:
        _active_plan = None
    os.environ.pop(PLAN_ENV, None)


def activate_from_env() -> Optional[ChaosPlan]:
    """Adopt the plan a parent exported (pool-worker initializer)."""
    global _active_plan
    inherited = ChaosPlan.from_env()
    if inherited is not None:
        with _lock:
            _active_plan = inherited
    return inherited


@contextmanager
def active(new_plan: ChaosPlan) -> Iterator[ChaosPlan]:
    """Scope *new_plan* to a block; restores the previous state after."""
    global _active_plan
    previous_plan = _active_plan
    previous_env = os.environ.get(PLAN_ENV)
    activate(new_plan)
    try:
        yield new_plan
    finally:
        with _lock:
            _active_plan = previous_plan
        if previous_env is None:
            os.environ.pop(PLAN_ENV, None)
        else:
            os.environ[PLAN_ENV] = previous_env


# ----------------------------------------------------------------------
# Seam hooks


def maybe_kill_worker(key: str) -> None:
    """Die like a SIGKILL'd worker when the plan says so.

    Callers gate this on *first* execution (requeued/recovered work
    passes a different key or skips the hook), so an injected kill is
    always recoverable and campaigns terminate.
    """
    current = _active_plan
    if current is None:
        return
    if current.decide("worker_kill", key) is not None:
        _bump("worker_kills")
        os._exit(KILL_EXIT_CODE)


def mangle_write(key: str, data: bytes) -> bytes:
    """Corrupt payload bytes bound for disk, or raise ENOSPC.

    *key* is the decision key the store built
    (:func:`repro.tools.cache.fault_key`), prefixed with the entry's
    namespace so a result and a trace draw independent decisions.
    Returns the (possibly mangled) bytes;
    ``enospc`` raises :class:`OSError` exactly like a full disk.
    """
    current = _active_plan
    if current is None:
        return data
    flavor = current.decide("disk_fault", key)
    if flavor is None:
        return data
    _bump(f"disk_{flavor}")
    if flavor == "enospc":
        raise OSError(errno.ENOSPC,
                      f"chaos-injected ENOSPC writing {key}")
    if flavor == "truncate":
        return data[:max(1, len(data) // 3)]
    # bitflip: flip one bit somewhere past any magic/header prefix.
    if not data:
        return data
    position = min(len(data) - 1,
                   8 + (current.seed % max(1, len(data) - 8)))
    mangled = bytearray(data)
    mangled[position] ^= 0x10
    return bytes(mangled)


def client_fault(key: str) -> Optional[str]:
    """Fault decision for one client HTTP attempt.

    Returns ``None`` (no fault), or one of ``refuse`` / ``reset`` /
    ``delay``.  The *caller* raises/delays, so this stays import-light;
    :class:`ChaosConnectionError` is provided for the raise.
    """
    current = _active_plan
    if current is None:
        return None
    flavor = current.decide("client_fault", key)
    if flavor is not None:
        _bump(f"client_{flavor}")
    return flavor


def maybe_stall() -> float:
    """Injected scheduler stall; returns the seconds actually slept."""
    current = _active_plan
    if current is None:
        return 0.0
    with _lock:
        tick = _counters.get("sched_ticks", 0)
        _counters["sched_ticks"] = tick + 1
    if current.decide("sched_stall", f"tick-{tick}") is None:
        return 0.0
    _bump("sched_stalls")
    time.sleep(current.stall_seconds)
    return current.stall_seconds
