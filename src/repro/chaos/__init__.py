"""repro.chaos: deterministic, seeded fault injection for the stack.

The one way this repository injects a fault.  The layer has four parts:

- :mod:`repro.chaos.plan` — :class:`ChaosPlan`, a frozen declarative
  value (seed + per-seam rates) from which every fault decision is a
  pure ``sha256(seed, seam, key)`` function: the same plan produces the
  same faults in any process, under any scheduling.
- :mod:`repro.chaos.injector` — the runtime hooks production seams
  consult (worker kills, disk-write mangling, client connection faults,
  scheduler stalls).  Every hook is a one-global-read no-op when no
  plan is active.
- :mod:`repro.chaos.model` — the model faults (dropped counter
  increments, counter bit-flips, truncated traces, stalled cores),
  whose parameters are drawn by the same pure hash as the plan's
  decisions, and the :class:`~repro.chaos.model.FaultInjector` hooks
  the CSR file, the cores and the PMU harness consult.
- :mod:`repro.chaos.campaign` — the end-to-end campaign behind
  ``repro-tma chaos``: runs the sweep and service layers under an
  active plan, checks the end-state invariants (zero job loss, exact
  dedup, fault-free-identical merged results, exact quarantine of
  corrupted cache entries, bounded service executions), demands that
  the invariant checker refutes every model fault, and emits a
  byte-deterministic report.
"""

from .injector import (ChaosConnectionError, KILL_EXIT_CODE, activate,
                       activate_from_env, active, client_fault, counters,
                       deactivate, mangle_write, maybe_kill_worker,
                       maybe_stall, plan, reset_counters)
from .plan import CLIENT_FLAVORS, DISK_FLAVORS, PLAN_ENV, SEAMS, ChaosPlan


def __getattr__(name):  # noqa: ANN001, ANN202
    # The campaign pulls in the sweep/service layers, which themselves
    # import this package for the injector hooks — load it lazily so
    # ``import repro.chaos`` stays cycle-free and cheap.
    if name in ("run_campaign", "CampaignReport"):
        from . import campaign

        return getattr(campaign, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CampaignReport",
    "run_campaign",
    "CLIENT_FLAVORS",
    "DISK_FLAVORS",
    "KILL_EXIT_CODE",
    "PLAN_ENV",
    "SEAMS",
    "ChaosConnectionError",
    "ChaosPlan",
    "activate",
    "activate_from_env",
    "active",
    "client_fault",
    "counters",
    "deactivate",
    "mangle_write",
    "maybe_kill_worker",
    "maybe_stall",
    "plan",
    "reset_counters",
]
