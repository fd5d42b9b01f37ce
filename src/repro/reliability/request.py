"""Run requests: what one :meth:`ResilientRunner.run_one` call executes.

A request is a frozen, picklable, validated value object.  There are two
kinds:

- :class:`TMAJob` — one workload × scale × core-config point, measured
  through the PMU harness, or, with ``windows`` set, simulated as a
  windowed (optionally sampled) run and stitched;
- :class:`MulticoreJob` — one multicore scenario run in lockstep.

Each has a :meth:`cache_key` (the result-cache entry it reads and
writes), a :meth:`job_key` (the dedup/store identity that also folds in
every option changing what a run returns), and :meth:`servable` — the
rule for when a cache entry is an exact stand-in for a run, shared by
the runner's lookup step and the service's result store.  The service
(:mod:`repro.service`) submits these objects as they are: the worker
pool ships ``(job, deadline)`` to the runner.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from ..cores import CONFIGS_BY_NAME
from ..cores.batch import resolve_config_spec
from ..pmu.csr import INCREMENT_MODES
from ..tools.cache import cache_key
from ..workloads import workload_names

#: Default per-run watchdog: generous for every registered workload at
#: the scales the sweeps use, tiny next to a genuine hang.  Scenario
#: cores run under it too (the largest registry scenario core runs
#: ~71k cycles at scale 1).
DEFAULT_MAX_CYCLES = 2_000_000


class JobValidationError(ValueError):
    """A submitted job payload failed validation (HTTP 400)."""


@dataclass(frozen=True)
class TMAJob:
    """One requested analysis: workload × scale × config × options."""

    workload: str
    config: str = "large-boom"
    scale: float = 1.0
    increment_mode: str = "adders"
    mode: str = "baremetal"
    events: Optional[Tuple[str, ...]] = None
    use_cache: bool = True
    #: Cycle watchdog of every core run; a windowed job gives each
    #: window (and its warmup run) this budget.
    max_cycles: Optional[int] = DEFAULT_MAX_CYCLES
    #: Relative wall-clock budget in seconds.  The service converts it
    #: to an absolute deadline when the job launches and hands it to
    #: :meth:`ResilientRunner.run_one`.
    deadline_seconds: Optional[float] = None
    #: Windowed execution: shard the trace into K windows simulated in
    #: parallel and stitched (:mod:`repro.cores.windowed`).  ``huge``
    #: tier workloads are accepted *only* with ``windows`` set.
    windows: Optional[int] = None
    warmup: Optional[int] = None
    sampled: bool = False

    def validate(self) -> None:
        if self.workload not in workload_names():
            # Huge-tier workloads are excluded from the default
            # enumeration; they are valid submissions, but only through
            # the windowed path.
            if self.workload in workload_names("huge"):
                if self.windows is None:
                    raise JobValidationError(
                        f"workload {self.workload!r} is in the 'huge' tier "
                        f"and requires 'windows'")
            else:
                raise JobValidationError(
                    f"unknown workload {self.workload!r}")
        # A config is a Table IV registry name or a canonical grid
        # point key ("large-boom+l1d=16"), so design-space variants
        # fanned out of a grid submission ride the normal job path.
        try:
            resolve_config_spec(self.config)
        except (KeyError, ValueError):
            raise JobValidationError(
                f"unknown config {self.config!r}; choose from "
                f"{sorted(CONFIGS_BY_NAME)} or a canonical grid point "
                f"key such as 'large-boom+l1d=16'") from None
        if not (0 < self.scale <= 10.0):
            raise JobValidationError(
                f"scale must be in (0, 10], got {self.scale}")
        if self.increment_mode not in INCREMENT_MODES:
            raise JobValidationError(
                f"unknown increment mode {self.increment_mode!r}")
        if self.mode not in ("baremetal", "linux"):
            raise JobValidationError(f"unknown mode {self.mode!r}")
        if self.max_cycles is not None and self.max_cycles < 1:
            raise JobValidationError("max_cycles must be >= 1 or null")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise JobValidationError(
                "deadline_seconds must be > 0 or null")
        if self.windows is not None and self.windows < 1:
            raise JobValidationError("windows must be >= 1 or null")
        if self.warmup is not None:
            if self.windows is None:
                raise JobValidationError("warmup requires windows")
            if self.warmup < 0:
                raise JobValidationError("warmup must be >= 0 or null")
        if self.sampled and self.windows is None:
            raise JobValidationError("sampled=true requires windows")
        if self.windows is not None:
            # A windowed run stitches core totals; it reads no PMU, so
            # a PMU option would label exact totals as something else.
            if self.increment_mode != "adders":
                raise JobValidationError(
                    f"windows conflicts with increment_mode "
                    f"{self.increment_mode!r}: windowed runs report exact "
                    f"core totals ('adders' only)")
            if self.mode != "baremetal":
                raise JobValidationError(
                    f"windows conflicts with mode {self.mode!r}: windowed "
                    f"runs are baremetal only")
            if self.events is not None:
                raise JobValidationError(
                    "windows conflicts with events: windowed runs read "
                    "no PMU counters")

    def config_obj(self):
        return resolve_config_spec(self.config)

    def servable(self) -> bool:
        """True when the result cache is an exact stand-in for a run.

        The ``adders`` counter architecture is an exact popcount (PMU
        readings equal the core's own totals) and ``baremetal`` adds no
        measurement passes.  ``classic``/``distributed`` counters,
        ``linux`` mode or an explicit event list measure through
        multi-pass or perturbed harness paths, so those always run.
        """
        return (self.use_cache
                and self.increment_mode == "adders"
                and self.mode == "baremetal"
                and self.events is None)

    def job_key(self) -> str:
        """Canonical dedup/store key for this analysis.

        Reuses the disk cache's (fingerprint, workload, scale, config)
        key and folds in every option that changes what a measurement
        returns: the harness options (so e.g. a ``distributed``-counter
        request never coalesces with an exact ``adders`` one) *and* the
        execution policy — a ``use_cache=False`` force-fresh submission
        must not be served a cached result via a ``use_cache=True``
        primary, and jobs with different watchdog budgets must not
        share a timeout verdict produced under someone else's smaller
        ``max_cycles``.
        """
        base = self.cache_key()
        digest = hashlib.sha256(base.encode())
        digest.update(self.increment_mode.encode())
        digest.update(self.mode.encode())
        digest.update(repr(self.events).encode())
        digest.update(repr(self.use_cache).encode())
        digest.update(repr(self.max_cycles).encode())
        digest.update(repr(self.deadline_seconds).encode())
        # The window plan is already folded through cache_key() when
        # windows is set, but fold the raw triple too so a future
        # cache-key simplification can never silently coalesce a
        # windowed job with a plain one.
        digest.update(
            repr((self.windows, self.warmup, self.sampled)).encode())
        return digest.hexdigest()[:24]

    def cache_key(self) -> str:
        """Key of the underlying core-result disk-cache entry.

        Windowed jobs key through
        :func:`repro.tools.cache.windowed_cache_key`, so they read and
        write the same entries :func:`repro.cores.windowed.run_windowed`
        uses — and never collide with plain runs.
        """
        if self.windows is not None:
            from ..cores.windowed import normalized_warmup
            from ..tools.cache import windowed_cache_key

            return windowed_cache_key(
                self.workload, self.scale, self.config_obj(), self.windows,
                normalized_warmup(self.windows, self.warmup, self.sampled),
                self.sampled)
        return cache_key(self.workload, self.scale, self.config_obj())

    def to_payload(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "config": self.config,
            "scale": self.scale,
            "increment_mode": self.increment_mode,
            "mode": self.mode,
            "events": list(self.events) if self.events else None,
            "use_cache": self.use_cache,
            "max_cycles": self.max_cycles,
            "deadline_seconds": self.deadline_seconds,
            "windows": self.windows,
            "warmup": self.warmup,
            "sampled": self.sampled,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "TMAJob":
        if not isinstance(payload, dict):
            raise JobValidationError("job payload must be a JSON object")
        if "workload" not in payload:
            raise JobValidationError("job payload requires 'workload'")
        known = {"workload", "config", "scale", "increment_mode", "mode",
                 "events", "use_cache", "max_cycles", "deadline_seconds",
                 "windows", "warmup", "sampled"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise JobValidationError(f"unknown job fields: {unknown}")
        events = payload.get("events")
        if events is not None:
            if (not isinstance(events, (list, tuple))
                    or not all(isinstance(e, str) for e in events)):
                raise JobValidationError("'events' must be a string list")
            events = tuple(events)
        try:
            job = cls(
                workload=str(payload["workload"]),
                config=str(payload.get("config", "large-boom")),
                scale=float(payload.get("scale", 1.0)),
                increment_mode=str(payload.get("increment_mode", "adders")),
                mode=str(payload.get("mode", "baremetal")),
                events=events,
                use_cache=bool(payload.get("use_cache", True)),
                max_cycles=(None if payload.get("max_cycles") is None
                            else int(payload["max_cycles"])),
                deadline_seconds=(
                    None if payload.get("deadline_seconds") is None
                    else float(payload["deadline_seconds"])),
                windows=(None if payload.get("windows") is None
                         else int(payload["windows"])),
                warmup=(None if payload.get("warmup") is None
                        else int(payload["warmup"])),
                sampled=bool(payload.get("sampled", False)),
            )
        except (TypeError, ValueError) as exc:
            raise JobValidationError(f"malformed job payload: {exc}") from exc
        job.validate()
        return job


@dataclass(frozen=True)
class MulticoreJob:
    """One requested multicore scenario run (see :mod:`repro.multicore`).

    Duck-types the :class:`TMAJob` surface the scheduler, store, and
    dispatcher rely on (``workload``/``config``/``job_key``/
    ``servable``/``deadline_seconds``), so scenario jobs ride the
    normal admission, dedup, breaker, and drain-persistence paths
    unchanged.  ``workload`` is the scenario name and ``config`` is the
    fixed tag ``"multicore"`` — together they form the breaker key, so
    a repeatedly-failing scenario quarantines without affecting
    single-core jobs.  Every core runs under
    :data:`DEFAULT_MAX_CYCLES`.
    """

    scenario: str
    cores: Optional[int] = None
    scale: Optional[float] = None
    shared_bus: Optional[bool] = None
    arbitration: Optional[str] = None
    use_cache: bool = True
    deadline_seconds: Optional[float] = None

    @property
    def workload(self) -> str:
        return self.scenario

    @property
    def config(self) -> str:
        return "multicore"

    def resolved(self):
        """The scenario with this job's overrides applied."""
        from ..multicore import get_scenario

        return get_scenario(self.scenario).with_overrides(
            cores=self.cores, scale=self.scale,
            shared_bus=self.shared_bus, arbitration=self.arbitration)

    def validate(self) -> None:
        if self.scale is not None and not (0 < self.scale <= 10.0):
            raise JobValidationError(
                f"scale must be in (0, 10], got {self.scale}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise JobValidationError(
                "deadline_seconds must be > 0 or null")
        try:
            self.resolved().validate()
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            raise JobValidationError(str(message)) from None

    def servable(self) -> bool:
        """A cached scenario payload is the whole result: always exact."""
        return self.use_cache

    def cache_key(self) -> str:
        """Key of the underlying scenario-payload disk-cache entry."""
        from ..multicore import scenario_cache_key

        return scenario_cache_key(self.resolved())

    def job_key(self) -> str:
        """Canonical dedup/store key for this scenario run.

        Built on the scenario disk-cache key (which already folds the
        resolved slots, scale, bus, arbitration, and the model +
        multicore fingerprints) plus the execution policy, mirroring
        :meth:`TMAJob.job_key`.
        """
        digest = hashlib.sha256(self.cache_key().encode())
        digest.update(repr(self.use_cache).encode())
        digest.update(repr(self.deadline_seconds).encode())
        return digest.hexdigest()[:24]

    def to_payload(self) -> Dict[str, Any]:
        return {
            "type": "multicore",
            "scenario": self.scenario,
            "cores": self.cores,
            "scale": self.scale,
            "shared_bus": self.shared_bus,
            "arbitration": self.arbitration,
            "use_cache": self.use_cache,
            "deadline_seconds": self.deadline_seconds,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MulticoreJob":
        if not isinstance(payload, dict):
            raise JobValidationError(
                "multicore payload must be a JSON object")
        if "scenario" not in payload:
            raise JobValidationError(
                "multicore payload requires 'scenario'")
        known = {"type", "scenario", "cores", "scale", "shared_bus",
                 "arbitration", "use_cache", "deadline_seconds"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise JobValidationError(
                f"unknown multicore fields: {unknown}")
        try:
            job = cls(
                scenario=str(payload["scenario"]),
                cores=(None if payload.get("cores") is None
                       else int(payload["cores"])),
                scale=(None if payload.get("scale") is None
                       else float(payload["scale"])),
                shared_bus=(None if payload.get("shared_bus") is None
                            else bool(payload["shared_bus"])),
                arbitration=(None if payload.get("arbitration") is None
                             else str(payload["arbitration"])),
                use_cache=bool(payload.get("use_cache", True)),
                deadline_seconds=(
                    None if payload.get("deadline_seconds") is None
                    else float(payload["deadline_seconds"])),
            )
        except (TypeError, ValueError) as exc:
            raise JobValidationError(
                f"malformed multicore payload: {exc}") from exc
        job.validate()
        return job


#: Anything :meth:`ResilientRunner.run_one` executes.
RunRequest = Union[TMAJob, MulticoreJob]
