"""The ``repro-tma chaos`` campaign: inject faults, verify end state.

The campaign attacks the stack at its real seams and then checks the
*end-state invariants* that the reliability layer promises survive any
schedule of those faults:

**Sweep phases** (the ``repro-tma sweep`` engine,
:func:`~repro.tools.tma_tool.run_grid` with a process-pool fan-out):

1. *Oracle* — the grid runs chaos-free in an isolated cache directory;
   its merged results are digested as the ground truth.
2. *Chaos pass 1* — the same grid runs under the plan in a second
   isolated directory: pool workers are killed mid-grid, cache writes
   are truncated/bit-flipped/ENOSPC'd.  Every pair must still complete
   (the fan-out re-runs a dead worker's point in the parent) and the
   merged results must digest identically to the oracle.
3. *Chaos pass 2* — the grid runs again in the same directory, so this
   pass *reads* the cache entries pass 1 corrupted: the batch engine
   must quarantine exactly the mangled entries (verify in the parent,
   delete, re-run), and the digest must again equal the oracle's.

**Model phase**: with no plan active, in its own isolated cache
directory, the campaign's first workload runs on every config.  A
clean control (multiplex agreement, every single-run invariant, scale
monotonicity) must report zero violations, then one run per model
fault class (:mod:`repro.chaos.model`) must be refuted by the
invariant checker with its class's error family: ``CounterCorruption``
for a dropped increment, a flipped counter bit or a truncated trace,
``RunTimeout`` for a stalled core.

**Service phase**: a real HTTP service (thread executor) takes a
duplicate-heavy burst from a chaotic client (refused/reset/delayed
requests) while the scheduler suffers injected stalls; after a drain,
the zero-loss ledger (``completed + failed + persisted == accepted``),
dedup exactness (followers resolve with their primary's state and
result), and the bounded-execution promise are checked on the service
object itself.

**Determinism.** The report holds only values that are pure functions
of ``(seed, grid)``: verdict booleans, plan-*enumerated* fault counts
(never runtime counters, which shift with scheduling), submission
counts fixed by construction, result digests, and the model trials'
drawn faults and injection counts (single-threaded simulations).  The
sweep's fault decisions are keyed on each entry's logical identity
(workload, scale, config), never on a source fingerprint, so editing
the simulator does not redraw the schedule
(:func:`planned_sweep_faults`).  Two runs with
the same seed must produce byte-identical reports — the chaos smoke
test enforces exactly that.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Tuple,
                    Union)

from ..cores.base import BoomConfig, RocketConfig
from ..cores.batch import BatchResult, GridPoint, parse_grid, point_task_key
from ..cores.configs import config_by_name
from ..pmu.harness import Measurement, PerfHarness
from ..reliability.errors import (CounterCorruption, ReliabilityError,
                                  RunTimeout)
from ..reliability.invariants import TmaInvariantChecker
from ..reliability.retry import RetryPolicy
from ..tools import cache
from ..workloads import trace_cache
from . import injector
from .model import (BITFLIP_COUNTER, DROP_INCREMENTS, MODEL_FAULTS,
                    STALL_CORE, TRUNCATE_TRACE, FaultInjector, FaultSpec,
                    draw_fault)
from .plan import ChaosPlan

#: Default campaign grid: small, fast, and wide enough that the
#: standard plan's rates light every seam.
DEFAULT_WORKLOADS = ("median", "qsort", "towers")
DEFAULT_CONFIGS = ("rocket", "large-boom")
DEFAULT_SCALE = 0.2

REPORT_VERSION = 3

CoreConfig = Union[RocketConfig, BoomConfig]

_CACHE_ENV = "REPRO_CACHE_DIR"


def campaign_plan(seed: int) -> ChaosPlan:
    """The default campaign plan: every seam lit on the small grid.

    The rates run hot because the campaign's grid is ~6 pairs, where
    moderate rates can draw zero faults on a seam for a given seed.
    The fault schedule is still a pure function of the seed.
    """
    return ChaosPlan(seed=seed,
                     worker_kill_rate=0.45,
                     disk_fault_rate=0.6,
                     client_fault_rate=0.35,
                     sched_stall_rate=0.20)


@contextmanager
def _isolated_cache_dir(root: str, name: str) -> Iterator[str]:
    """Point the result/trace caches at a fresh directory under *root*."""
    directory = os.path.join(root, name)
    os.makedirs(directory, exist_ok=True)
    previous = os.environ.get(_CACHE_ENV)
    os.environ[_CACHE_ENV] = directory
    trace_cache.clear_memory()
    try:
        yield directory
    finally:
        if previous is None:
            os.environ.pop(_CACHE_ENV, None)
        else:
            os.environ[_CACHE_ENV] = previous
        trace_cache.clear_memory()


def _result_digest(batches: Sequence[BatchResult]) -> str:
    """Canonical digest of a sweep's merged results.

    Folds, per pair in grid order: identity and the exact serialized
    :class:`CoreResult`.  Deliberately excludes fan-out modes, cache
    hits, and quarantines — those describe *how* the sweep got there,
    which chaos legitimately changes; the digest captures *what* it
    produced, which chaos must not.
    """
    pairs: List[Dict[str, Any]] = [
        {"workload": batch.workload, "config": point.key,
         "result": cache.serialize_result(result)}
        for batch in batches
        for point, result in zip(batch.points, batch.results)]
    canonical = json.dumps(pairs, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


@dataclass
class CampaignReport:
    """Deterministic verdict of one chaos campaign."""

    version: int = REPORT_VERSION
    seed: int = 0
    plan: Dict[str, Any] = field(default_factory=dict)
    sweep: Dict[str, Any] = field(default_factory=dict)
    model: Dict[str, Any] = field(default_factory=dict)
    service: Dict[str, Any] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_payload(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "seed": self.seed,
            "plan": self.plan,
            "sweep": self.sweep,
            "model": self.model,
            "service": self.service,
            "violations": list(self.violations),
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2)

    def render(self) -> str:
        lines = [f"chaos campaign: seed={self.seed} "
                 f"{'PASSED' if self.passed else 'FAILED'}"]
        sweep = self.sweep
        lines.append(
            f"  sweep: {sweep.get('pairs')} pairs, "
            f"kills planned={sweep.get('worker_kills_planned')}, "
            f"disk faults planned={sweep.get('disk_faults_planned')}, "
            f"oracle match pass1={sweep.get('pass1_identical')} "
            f"pass2={sweep.get('pass2_identical')}, "
            f"corrupt entries detected={sweep.get('corruption_detected')}")
        model = self.model
        lines.append(
            f"  model: {model.get('workload')} on "
            f"{', '.join(model.get('configs', []))}, "
            f"clean control={all(model.get('clean', {}).values())}, "
            f"caught {model.get('caught')}/{len(model.get('trials', []))} "
            f"model faults")
        service = self.service
        if service:
            lines.append(
                f"  service: {service.get('submissions')} submissions "
                f"({service.get('unique_jobs')} unique), "
                f"client faults planned="
                f"{service.get('client_faults_planned')}, "
                f"zero loss={service.get('zero_loss')}, "
                f"dedup exact={service.get('dedup_exact')}, "
                f"executions bounded={service.get('executions_bounded')}")
        else:
            lines.append("  service: phase skipped")
        if self.violations:
            lines.append("  violations:")
            lines.extend(f"    - {violation}" for violation in self.violations)
        else:
            lines.append("  all invariants held")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Sweep phases


def planned_sweep_faults(plan: ChaosPlan, workloads: Sequence[str],
                         points: Sequence[GridPoint],
                         scale: float) -> Dict[str, Any]:
    """The sweep phase's fault schedule, enumerated without running.

    Every key is a logical identity — the fan-out task key of a grid
    point, the fault key of a result-cache or trace-cache entry — so
    the schedule depends on ``(seed, grid)`` only.  ``corrupting``
    lists the ``workload:point`` entries whose result-cache write
    leaves a damaged entry on disk (``enospc`` leaves none), i.e.
    exactly what pass 2 must quarantine.
    """
    pairs = [(w, p) for w in workloads for p in points]
    entries = {cache.fault_key("result",
                               cache.entry_identity(w, scale, p.config)):
               f"{w}:{p.key}" for w, p in pairs}
    disk_keys = list(entries) + [
        cache.fault_key("trace", trace_cache.identity(w, scale))
        for w in dict.fromkeys(workloads)]
    disk = plan.planned_faults("disk_fault", disk_keys)
    return {
        "worker_kill": plan.planned_faults(
            "worker_kill", [point_task_key(w, p) for w, p in pairs]),
        "disk_fault": disk,
        "corrupting": sorted(entries[key] for key, flavor in disk
                             if key in entries and flavor != "enospc"),
    }


def _sweep_once(workloads: Sequence[str], points: Sequence[GridPoint],
                scale: float, workers: int) -> List[BatchResult]:
    from ..tools.tma_tool import run_grid

    return run_grid(list(workloads), points, scale=scale, workers=workers)


def _run_sweep_phase(report: CampaignReport, plan: ChaosPlan, root: str,
                     workloads: Sequence[str], config_names: Sequence[str],
                     scale: float, workers: int) -> None:
    points = parse_grid(",".join(config_names))
    planned = planned_sweep_faults(plan, workloads, points, scale)

    with _isolated_cache_dir(root, "oracle"):
        injector.deactivate()
        oracle = _sweep_once(workloads, points, scale, workers)
    oracle_digest = _result_digest(oracle)

    with _isolated_cache_dir(root, "chaos"):
        with injector.active(plan):
            pass1 = _sweep_once(workloads, points, scale, workers)
            pass2 = _sweep_once(workloads, points, scale, workers)
    pass1_digest = _result_digest(pass1)
    pass2_digest = _result_digest(pass2)

    grid_size = len(workloads) * len(points)
    detected = sorted(f"{batch.workload}:{key}" for batch in pass2
                      for key in batch.stats.quarantined)
    expected_corrupt = planned["corrupting"]

    report.sweep = {
        "pairs": grid_size,
        "workloads": list(workloads),
        "configs": list(config_names),
        "scale": scale,
        "oracle_digest": oracle_digest,
        "pass1_digest": pass1_digest,
        "pass2_digest": pass2_digest,
        "pass1_identical": pass1_digest == oracle_digest,
        "pass2_identical": pass2_digest == oracle_digest,
        "worker_kills_planned": len(planned["worker_kill"]),
        "disk_faults_planned": len(planned["disk_fault"]),
        "corrupt_entries_planned": len(expected_corrupt),
        "corrupt_entries_detected": len(detected),
        "corruption_detected": detected == expected_corrupt,
    }

    for label, batches in (("oracle", oracle), ("pass1", pass1),
                           ("pass2", pass2)):
        results = sum(len(batch.results) for batch in batches)
        if results != grid_size:
            report.violations.append(
                f"sweep/{label}: {results} results for a "
                f"{grid_size}-pair grid (pairs lost)")
    if not report.sweep["pass1_identical"]:
        report.violations.append(
            "sweep/pass1: merged results diverge from the fault-free "
            "oracle")
    if not report.sweep["pass2_identical"]:
        report.violations.append(
            "sweep/pass2: merged results diverge from the fault-free "
            "oracle after reading chaos-corrupted caches")
    if not report.sweep["corruption_detected"]:
        report.violations.append(
            f"sweep/pass2: corrupted cache entries not exactly "
            f"quarantined (expected {expected_corrupt}, got {detected})")


# ----------------------------------------------------------------------
# Model phase

#: High-frequency events per core: every one fires often enough that a
#: dropped-increment fault is guaranteed to actually perturb the run,
#: and the list is exactly the set of counters the bitflip fault may
#: target (counters 3 .. 3+len-1).
CAMPAIGN_EVENTS = {
    "boom": ("cycles", "uops_issued", "uops_retired", "fetch_bubbles",
             "recovering"),
    "rocket": ("cycles", "instr_issued", "instr_retired", "fetch_bubbles",
               "recovering"),
}

#: The error family the checker must refute each model fault with.
EXPECTED_ERRORS = {
    DROP_INCREMENTS: CounterCorruption,
    BITFLIP_COUNTER: CounterCorruption,
    TRUNCATE_TRACE: CounterCorruption,
    STALL_CORE: RunTimeout,
}

#: Watchdog budget of every model-phase run, and so the length of a
#: stall-core trial: ~20x a clean run of the campaign's workloads at
#: their default scale.
MODEL_MAX_CYCLES = 100_000


def _clean_control(checker: TmaInvariantChecker, workload: str,
                   config: CoreConfig,
                   events: Sequence[str], scale: float) -> Measurement:
    """Fault-free audit of one pair; returns the reference measurement."""
    harness = PerfHarness(core=config.core)
    reference = checker.check_multiplex_agreement(
        harness, workload, config, events, scale=scale,
        max_cycles=MODEL_MAX_CYCLES)
    checker.check_measurement(reference)
    smaller = harness.measure(workload, config, event_names=list(events),
                              scale=scale * 0.6, max_cycles=MODEL_MAX_CYCLES)
    checker.check_measurement(smaller)
    checker.check_monotonic([smaller, reference])
    return reference


def _model_trial(spec: FaultSpec, checker: TmaInvariantChecker,
                 reference: Measurement, workload: str,
                 config: CoreConfig,
                 events: Sequence[str], scale: float) -> Dict[str, Any]:
    """One faulted run, which the checker must refute."""
    fault = FaultInjector(spec)
    harness = PerfHarness(core=config.core, fault_injector=fault)
    error: Optional[ReliabilityError] = None
    try:
        measurement = harness.measure(workload, config,
                                      event_names=list(events), scale=scale,
                                      max_cycles=MODEL_MAX_CYCLES)
        checker.check_measurement(measurement)
        checker.check_matches_reference(measurement, reference)
    except ReliabilityError as exc:
        error = exc
    return {
        "kind": spec.kind,
        "fault": spec.describe(),
        "injections": fault.injections,
        "error": None if error is None else type(error).__name__,
        "caught": isinstance(error, EXPECTED_ERRORS[spec.kind]),
    }


def run_model_phase(report: CampaignReport, seed: int, root: str,
                    workload: str, config_names: Sequence[str],
                    scale: float) -> None:
    """Clean control, then one refuted trial per model fault, per config.

    Each trial's fault is :func:`~repro.chaos.model.draw_fault` of
    ``(seed, class, workload, config)``, so it does not depend on which
    other pairs or classes the phase runs.
    """
    checker = TmaInvariantChecker()
    clean: Dict[str, bool] = {}
    trials: List[Dict[str, Any]] = []
    with _isolated_cache_dir(root, "model"):
        injector.deactivate()
        for name in config_names:
            config = config_by_name(name)
            events = CAMPAIGN_EVENTS[config.core]
            try:
                reference = _clean_control(checker, workload, config,
                                           events, scale)
            except ReliabilityError as exc:
                clean[name] = False
                report.violations.append(
                    f"model/{name}: clean control flagged a fault-free "
                    f"run: {exc}")
                continue
            clean[name] = True
            for kind in MODEL_FAULTS:
                spec = draw_fault(seed, kind, workload, name, events)
                trial = _model_trial(spec, checker, reference, workload,
                                     config, events, scale)
                trials.append({"config": name, **trial})
                if trial["caught"]:
                    continue
                if not trial["injections"]:
                    why = "fault never fired (vacuous trial)"
                elif trial["error"] is None:
                    why = "fault escaped detection"
                else:
                    why = (f"refuted as {trial['error']}, expected "
                           f"{EXPECTED_ERRORS[kind].__name__}")
                report.violations.append(
                    f"model/{name}: {spec.describe()}: {why}")
    report.model = {
        "workload": workload,
        "configs": list(config_names),
        "scale": scale,
        "clean": clean,
        "trials": trials,
        "caught": sum(1 for trial in trials if trial["caught"]),
    }


# ----------------------------------------------------------------------
# Service phase


def _run_service_phase(report: CampaignReport, plan: ChaosPlan, root: str,
                       workloads: Sequence[str], config_name: str,
                       scale: float, submissions_per_job: int) -> None:
    from ..service import ServiceClient, TMAService, serve_in_thread
    from ..service.client import JobRejected, ServiceError

    #: Duplicate-heavy burst: each unique job is submitted this many
    #: times, so dedup/coalescing is always exercised.
    unique_jobs = [(w, config_name) for w in workloads]
    burst: List[Tuple[str, str]] = []
    for _ in range(submissions_per_job):
        burst.extend(unique_jobs)
    client_keys = [f"POST:/jobs:req-{i}" for i in range(len(burst))]
    planned_client = plan.planned_faults("client_fault", client_keys)

    with _isolated_cache_dir(root, "service"):
        with injector.active(plan):
            service = TMAService(workers=2, queue_capacity=32,
                                 executor="thread")
            service.start(resume=False)
            server, thread = serve_in_thread(service)
            host, port = server.server_address[:2]
            client = ServiceClient(
                f"http://{host}:{port}",
                retry_policy=RetryPolicy(max_attempts=4, base_delay=0.0,
                                         seed=plan.seed))
            transport_failures = 0
            try:
                for workload, config in burst:
                    try:
                        client.submit(workload, retries=8, config=config,
                                      scale=scale, client="chaos")
                    except (JobRejected, ServiceError):
                        # Chaos refused/reset the submission before it
                        # reached the server, or backpressure outlasted
                        # the retry budget — either way the server never
                        # accepted it, so its ledger stays consistent.
                        transport_failures += 1
                # Exercise the idempotent retry path under chaos too.
                for _ in range(3):
                    try:
                        client.metrics()
                    except ServiceError:
                        transport_failures += 1
                drain = service.drain(timeout=60.0)
            finally:
                server.shutdown()
                thread.join(timeout=5.0)

            metrics = service.metrics_snapshot()
            records = service.records()

    counters = metrics.get("counters", metrics)
    accepted = drain.get("accepted", 0)
    completed = drain.get("completed", 0)
    failed = drain.get("failed", 0)
    persisted = drain.get("persisted", 0)
    zero_loss = completed + failed + persisted == accepted

    # Dedup exactness: every coalesced follower must resolve with its
    # primary's state and result payload.
    by_id = {record.id: record for record in records}
    dedup_exact = True
    for record in records:
        if record.coalesced_with is None:
            continue
        primary = by_id.get(record.coalesced_with)
        if primary is None:
            continue  # primary evicted by retention; nothing to compare
        if (record.state != primary.state
                or record.result != primary.result):
            dedup_exact = False
            break

    executed = counters.get("jobs_executed", 0)
    max_executions = len(unique_jobs) * (1 + service.max_requeues)
    executions_bounded = executed <= max_executions

    report.service = {
        "submissions": len(burst),
        "unique_jobs": len(unique_jobs),
        "client_faults_planned": len(planned_client),
        "zero_loss": zero_loss,
        "dedup_exact": dedup_exact,
        "executions_bounded": executions_bounded,
    }

    if not zero_loss:
        report.violations.append(
            f"service: job-loss ledger broken — completed={completed} "
            f"+ failed={failed} + persisted={persisted} != "
            f"accepted={accepted}")
    if not dedup_exact:
        report.violations.append(
            "service: a coalesced follower resolved with a different "
            "state/result than its primary")
    if not executions_bounded:
        report.violations.append(
            f"service: {executed} executions for {len(unique_jobs)} "
            f"unique jobs (bound {max_executions}) — dedup or requeue "
            f"bounds broken")


# ----------------------------------------------------------------------


def run_campaign(seed: int = 1234,
                 plan: Optional[ChaosPlan] = None,
                 workloads: Sequence[str] = DEFAULT_WORKLOADS,
                 config_names: Sequence[str] = DEFAULT_CONFIGS,
                 scale: float = DEFAULT_SCALE,
                 workers: int = 2,
                 submissions_per_job: int = 4,
                 skip_service: bool = False) -> CampaignReport:
    """Run the full chaos campaign; returns a deterministic report.

    All phases run inside isolated temporary cache directories, so a
    campaign never touches (or trusts) the developer's warm cache.
    """
    if plan is None:
        plan = campaign_plan(seed)
    report = CampaignReport(seed=plan.seed, plan=plan.to_payload())
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as root:
        _run_sweep_phase(report, plan, root, workloads, config_names,
                         scale, workers)
        run_model_phase(report, plan.seed, root, workloads[0],
                        config_names, scale)
        if not skip_service:
            _run_service_phase(report, plan, root, workloads,
                               config_names[0], scale, submissions_per_job)
    return report
