"""Declarative, seeded chaos plans: seed -> reproducible fault schedule.

A :class:`ChaosPlan` describes *which system-level seams* get attacked
and *how hard*, as per-seam fault rates.  The crucial property is that
every injection decision is a **pure function** of ``(seed, seam,
key)`` — no RNG state, no ordering dependence, no cross-process
coordination.  That makes a campaign:

- **reproducible**: the same seed injects the same faults at the same
  keys, run after run, machine after machine;
- **process-transparent**: a pool worker reaches the same decisions as
  the parent because the decision needs only the plan (shipped through
  the ``REPRO_CHAOS_PLAN`` environment variable), never a shared
  counter;
- **enumerable**: a report can list the planned faults for a known key
  space without having executed anything.

Seam names (see :mod:`repro.chaos.injector` for where each fires)::

    worker_kill   SIGKILL-style os._exit inside a pool worker
    disk_fault    mangled result-cache / trace-cache writes; flavors
                  ``truncate`` | ``bitflip`` | ``enospc``
    client_fault  dropped/reset/delayed service HTTP requests; flavors
                  ``refuse`` | ``reset`` | ``delay``
    sched_stall   injected stall in the scheduler dispatch path
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Tuple

#: Environment variable carrying the active plan's JSON into workers.
PLAN_ENV = "REPRO_CHAOS_PLAN"

#: The seams a plan can attack.
SEAMS = ("worker_kill", "disk_fault", "client_fault", "sched_stall")

#: Flavors per multi-flavor seam, in deterministic pick order.
DISK_FLAVORS = ("truncate", "bitflip", "enospc")
CLIENT_FLAVORS = ("refuse", "reset", "delay")


def decision_fraction(seed: int, seam: str, key: str) -> float:
    """Uniform [0, 1) fraction, a pure function of (seed, seam, key)."""
    digest = hashlib.sha256(
        f"chaos:{seed}:{seam}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def _flavor_pick(seed: int, seam: str, key: str,
                 flavors: Tuple[str, ...]) -> str:
    digest = hashlib.sha256(
        f"chaos-flavor:{seed}:{seam}:{key}".encode("utf-8")).digest()
    return flavors[int.from_bytes(digest[:4], "big") % len(flavors)]


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded, declarative fault schedule over the system-level seams.

    Rates are probabilities in [0, 1] evaluated independently per key.
    A rate of 0 disables that seam entirely; :meth:`quiet` (all zeros)
    is the explicit no-chaos plan.
    """

    seed: int = 0
    worker_kill_rate: float = 0.0
    disk_fault_rate: float = 0.0
    client_fault_rate: float = 0.0
    sched_stall_rate: float = 0.0
    #: Seconds one injected scheduler stall sleeps.
    stall_seconds: float = 0.002
    #: Seconds one injected client delay sleeps.
    delay_seconds: float = 0.01

    def __post_init__(self) -> None:
        for name in ("worker_kill_rate", "disk_fault_rate",
                     "client_fault_rate", "sched_stall_rate"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.stall_seconds < 0 or self.delay_seconds < 0:
            raise ValueError("stall/delay seconds must be >= 0")

    # ------------------------------------------------------------------
    # Decisions

    def _rate(self, seam: str) -> float:
        return {
            "worker_kill": self.worker_kill_rate,
            "disk_fault": self.disk_fault_rate,
            "client_fault": self.client_fault_rate,
            "sched_stall": self.sched_stall_rate,
        }[seam]

    def decide(self, seam: str, key: str) -> Optional[str]:
        """The fault (flavor name) injected at (seam, key), or None.

        Single-flavor seams return the seam name itself.  Stateless and
        deterministic: every process reaches the same verdict.
        """
        if seam not in SEAMS:
            raise ValueError(f"unknown chaos seam {seam!r}")
        rate = self._rate(seam)
        if rate <= 0.0:
            return None
        if decision_fraction(self.seed, seam, key) >= rate:
            return None
        if seam == "disk_fault":
            return _flavor_pick(self.seed, seam, key, DISK_FLAVORS)
        if seam == "client_fault":
            return _flavor_pick(self.seed, seam, key, CLIENT_FLAVORS)
        return seam

    def planned_faults(self, seam: str,
                       keys: Iterable[str]) -> List[Tuple[str, str]]:
        """Enumerate (key, flavor) decisions over a known key space."""
        planned = []
        for key in keys:
            flavor = self.decide(seam, key)
            if flavor is not None:
                planned.append((key, flavor))
        return planned

    # ------------------------------------------------------------------
    # Serialization (environment round-trip into pool workers)

    def to_payload(self) -> Dict[str, float]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Dict[str, float]) -> "ChaosPlan":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown chaos-plan fields: {unknown}")
        return cls(**payload)

    @classmethod
    def from_json(cls, document: str) -> "ChaosPlan":
        payload = json.loads(document)
        if not isinstance(payload, dict):
            raise ValueError("chaos plan must be a JSON object")
        return cls.from_payload(payload)

    def env(self) -> Dict[str, str]:
        """Environment fragment that activates this plan in children."""
        return {PLAN_ENV: self.to_json()}

    @classmethod
    def from_env(cls) -> Optional["ChaosPlan"]:
        raw = os.environ.get(PLAN_ENV)
        if not raw or not raw.strip():
            return None
        try:
            return cls.from_json(raw)
        except (ValueError, TypeError):
            return None  # a garbled plan must never take the host down

    # ------------------------------------------------------------------

    @classmethod
    def quiet(cls, seed: int = 0) -> "ChaosPlan":
        """The explicit no-faults plan (oracle runs)."""
        return cls(seed=seed)
