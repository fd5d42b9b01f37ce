"""Worker pool: job execution with crash isolation and recovery.

Every job — a point, a windowed run or a multicore scenario — executes
through :meth:`ResilientRunner.run_one
<repro.reliability.runner.ResilientRunner.run_one>` (cache lookup with
quarantine, deadline, watchdog, invariant check, retry, cache store)
inside whatever executor the deployment chose — ``process`` (crash
isolation, true parallelism), ``thread``, or ``inline`` (see
:mod:`repro.tools.pool`, shared with the batch sweep engine).  The job
object itself is the picklable request: the pool ships
``(job, absolute deadline)``.

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
from ..reliability.request import RunRequest
from ..reliability.retry import RetryPolicy
from ..reliability.runner import ResilientRunner, RunOutcome
from ..tools.pool import ExecutorFactory, executor_factory, in_worker

#: Submission-path retry schedule: one rebuild-and-resubmit per broken
#: executor, no backoff (a fresh pool is immediately usable).
SUBMIT_RETRY_POLICY = RetryPolicy(max_attempts=2, base_delay=0.0)


def execute_job(job: RunRequest, deadline: Optional[float] = None,
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
        chaos.maybe_kill_worker(f"job:{job.workload}:{job.config}")
    return ResilientRunner().run_one(job, deadline, progress=progress)


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

    def submit(self, job: RunRequest, deadline: Optional[float] = None,
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
                    attempt - 1, salt=f"submit:{job.workload}:{job.config}")
                if pause > 0:
                    time.sleep(pause)
            if not self.supports_callbacks:
                progress = None
            try:
                future = executor.submit(execute_job, job, deadline,
                                         allow_crash_hook, progress)
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
