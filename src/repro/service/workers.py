"""Worker pool: job execution with crash isolation and recovery.

Jobs execute through :class:`~repro.reliability.runner.ResilientRunner`
(watchdog, invariant checks, bounded retry, cache quarantine) rebuilt
from a picklable :class:`~repro.tools.pool.RunnerSpec` inside whatever
executor the deployment chose — ``process`` (crash isolation, true
parallelism), ``thread``, or ``inline`` (see
:mod:`repro.tools.pool`, shared with the batch sweep engine).

A worker that dies outright (OOM-killed, segfaulted) breaks the whole
:class:`~concurrent.futures.ProcessPoolExecutor`; the pool detects the
broken executor, rebuilds it, and reports the crash so the service can
re-queue the victim job.  The chaos worker-kill seam
(:func:`repro.chaos.maybe_kill_worker`, e.g. under
``ChaosPlan(worker_kill_rate=1.0)``) fires only on a job's first
execution (re-queued jobs run with it disabled), so recovery is
testable deterministically.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import BrokenExecutor, Future
from typing import Callable, Optional

from ..chaos import injector as chaos
from ..cores import resolve_config_spec
from ..reliability.retry import RetryPolicy
from ..reliability.runner import RunOutcome
from ..tools.pool import (ExecutorFactory, RunnerSpec, executor_factory,
                          in_worker)

#: Submission-path retry schedule: one rebuild-and-resubmit per broken
#: executor, no backoff (a fresh pool is immediately usable).
SUBMIT_RETRY_POLICY = RetryPolicy(max_attempts=2, base_delay=0.0)


def execute_job(spec: RunnerSpec, workload: str, config_name: str,
                allow_crash_hook: bool = True,
                progress: Optional[Callable[[str], None]] = None
                ) -> RunOutcome:
    """Run one job (in a pool worker or inline) and return its outcome.

    The runner resolves the functional trace through the shared
    trace-memoization tiers (:mod:`repro.workloads.trace_cache`): a
    burst of jobs over the same workload executes it functionally once
    per worker at most, and usually zero times (disk hit on packed
    column bytes).  The per-run hit/miss delta rides home on
    ``RunOutcome.trace_cache`` for the service metrics registry.

    ``progress`` is an optional per-window tick sink (windowed jobs
    only).  It cannot cross a process boundary, so the pool forwards
    it only on same-process executors; see :meth:`WorkerPool.submit`.
    """
    if allow_crash_hook and in_worker():
        # Chaos worker-kill seam: first execution only (re-queued jobs
        # run with the hook disabled), so injected kills always recover.
        chaos.maybe_kill_worker(f"job:{workload}:{config_name}")
    if spec.scenario is not None:
        return _execute_multicore(spec)
    if spec.windows is not None:
        return _execute_windowed(spec, workload, config_name,
                                 progress=progress)
    # Accept grid point keys ("rocket+l1d=8KiB") as well as registry
    # names, so fanned-out grid jobs run through the same path.
    config = resolve_config_spec(config_name)
    runner = spec.build()
    return runner.run_one(workload, config)


def _execute_windowed(spec: RunnerSpec, workload: str, config_name: str,
                      progress: Optional[Callable[[str], None]] = None
                      ) -> RunOutcome:
    """Run one windowed job; the result summary rides the outcome.

    The job already executes inside a service pool worker, so the
    windowed engine runs its windows serially here (``workers=1``)
    rather than nesting a second process pool; service-level
    parallelism comes from many jobs in flight.  The outcome payload is
    labeled ``kind="windowed"`` and always carries the ``sampled`` flag
    so :func:`repro.service.job.outcome_payload` can surface it.
    """
    from ..core.tma import compute_tma
    from ..cores.windowed import run_windowed
    from ..isa.errors import DeadlineExceeded

    assert spec.windows is not None
    config = resolve_config_spec(config_name)
    try:
        if spec.deadline is not None and time.time() >= spec.deadline:
            raise DeadlineExceeded(
                f"windowed job {workload!r} deadline lapsed before start")
        result = run_windowed(
            workload, config, windows=spec.windows, scale=spec.scale,
            warmup=spec.windows_warmup, sampled=spec.windows_sampled,
            use_cache=spec.use_cache, workers=1,
            progress=progress if progress is not None else False)
        tma = compute_tma(result)
    except Exception as exc:  # noqa: BLE001 - reported on the outcome
        return RunOutcome(workload=workload, config_name=config_name,
                          status="failed", attempts=1,
                          error_class=type(exc).__name__,
                          error=str(exc))
    payload = {
        "kind": "windowed",
        "sampled": result.sampled,
        "windowed": result.windowed,
        "cycles": result.cycles,
        "instret": result.instret,
        "ipc": round(result.instret / result.cycles, 6)
        if result.cycles else 0.0,
        "tma": {
            "level1": {k: round(v, 6) for k, v in tma.level1.items()},
            "level2": {k: round(v, 6) for k, v in tma.level2.items()},
            "dominant": tma.dominant_class(),
        },
    }
    return RunOutcome(workload=workload, config_name=config_name,
                      status="ok", attempts=1, payload=payload)


def _execute_multicore(spec: RunnerSpec) -> RunOutcome:
    """Run one multicore scenario job; the payload rides the outcome.

    Scenario runs have no Measurement/TMA pair of their own — the
    per-core documents live inside the scenario payload — so the
    outcome carries the whole payload for
    :func:`repro.service.job.outcome_payload` to pass through.
    """
    from ..isa.errors import DeadlineExceeded
    from ..multicore import run_scenario_payload

    assert spec.scenario is not None
    try:
        if spec.deadline is not None and time.time() >= spec.deadline:
            raise DeadlineExceeded(
                f"scenario {spec.scenario!r} deadline lapsed before start")
        payload = run_scenario_payload(
            spec.scenario,
            cores=spec.scenario_cores,
            scale=spec.scenario_scale,
            shared_bus=spec.scenario_shared_bus,
            arbitration=spec.scenario_arbitration,
            max_cycles=spec.max_cycles,
            use_cache=spec.use_cache)
    except Exception as exc:  # noqa: BLE001 - reported on the outcome
        return RunOutcome(workload=spec.scenario,
                          config_name="multicore",
                          status="failed", attempts=1,
                          error_class=type(exc).__name__,
                          error=str(exc))
    return RunOutcome(workload=spec.scenario, config_name="multicore",
                      status="ok", attempts=1, payload=payload)


class WorkerPool:
    """An executor that survives worker crashes.

    ``style`` picks a factory from
    :data:`repro.tools.pool.EXECUTOR_FACTORIES`; tests may inject a
    custom ``factory`` instead (it receives the worker count and must
    return an executor with ``submit``/``shutdown``).
    """

    def __init__(self, workers: int = 2, style: str = "process",
                 factory: Optional[ExecutorFactory] = None,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.style = style
        self._factory = factory or executor_factory(style)
        self.retry_policy = retry_policy or SUBMIT_RETRY_POLICY
        self._lock = threading.Lock()
        self._executor = None
        self._shut_down = False
        self.rebuilds = 0

    def _ensure_executor(self):
        with self._lock:
            if self._shut_down:
                raise RuntimeError("worker pool is shut down")
            if self._executor is None:
                self._executor = self._factory(self.workers)
            return self._executor

    @property
    def kind(self) -> str:
        """The ladder rung actually in use (falls back to the style).

        Custom injected factories may build executors without a
        ``kind`` attribute; the configured style is the honest answer
        then.
        """
        executor = self._executor
        return getattr(executor, "kind", None) or self.style

    @property
    def supports_callbacks(self) -> bool:
        """True when submissions stay in-process (callables can ride).

        Process executors ship arguments across process boundaries, so
        live progress callbacks cannot follow; thread and inline
        executors share the interpreter.
        """
        return self.kind in ("thread", "inline")

    def submit(self, spec: RunnerSpec, workload: str, config_name: str,
               allow_crash_hook: bool = True,
               progress=None) -> Future:
        # Submission retries follow the shared RetryPolicy: the pool
        # broke between jobs (a worker died idle, or a previous crash
        # poisoned it) — rebuild and resubmit, bounded by the policy's
        # attempt cap instead of an ad-hoc single retry.
        last_exc: Optional[BaseException] = None
        for attempt in range(self.retry_policy.max_attempts):
            executor = self._ensure_executor()
            if attempt:
                pause = self.retry_policy.delay(
                    attempt - 1, salt=f"submit:{workload}:{config_name}")
                if pause > 0:
                    time.sleep(pause)
            try:
                if progress is not None and self.supports_callbacks:
                    future = executor.submit(execute_job, spec, workload,
                                             config_name, allow_crash_hook,
                                             progress)
                else:
                    future = executor.submit(execute_job, spec, workload,
                                             config_name, allow_crash_hook)
            except (BrokenExecutor, RuntimeError) as exc:
                last_exc = exc
                with self._lock:
                    if self._shut_down:
                        # shutdown() raced us: refuse, never resurrect a
                        # fresh executor the shutdown would not reap.
                        raise
                self._rebuild(executor)
                continue
            # Remember which executor produced the future, so a later
            # crash report rebuilds the executor that actually broke and
            # never tears down an already-rebuilt healthy one.
            future.pool_source = executor
            return future
        assert last_exc is not None
        raise last_exc

    def _rebuild(self, broken) -> None:
        with self._lock:
            if self._executor is not broken:
                return  # someone else already swapped it out
            self._executor = None
            self.rebuilds += 1
        try:
            broken.shutdown(wait=False)
        except Exception:  # noqa: BLE001 - broken pools may refuse politely
            pass

    def note_broken(self, future_exception: BaseException,
                    future: Optional[Future] = None) -> bool:
        """Classify a job failure; rebuild the pool if it was a crash.

        Returns True when the exception means the *worker* died (the
        job itself is innocent and should be re-queued) rather than the
        job failing on its own merits.  Pass the failed ``future`` so
        the rebuild targets the executor that actually produced it:
        ``_rebuild`` is identity-checked, so a stale crash report from
        an already-replaced executor never shuts down the healthy
        rebuilt one mid-flight.
        """
        if not isinstance(future_exception, BrokenExecutor):
            return False
        broken = getattr(future, "pool_source", None)
        if broken is None:
            with self._lock:
                broken = self._executor
        if broken is not None:
            self._rebuild(broken)
        return True

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._shut_down = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)
