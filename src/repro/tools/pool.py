"""Shared worker-pool plumbing: fan-out and the executor ladder.

Every process fan-out in the repo goes through :func:`fan_out`: the
batch grid engine (:func:`repro.cores.batch.run_batch`) and the
windowed engine (:mod:`repro.cores.windowed`) hand it their tasks and
get results back in completion order.  Its one contract:

- a task whose pool future raises (a killed worker, a broken pool, a
  pickling error) is re-run in the parent through the caller's
  ``inline_fn``; if no pool can be built, every task runs inline;
- the :class:`FanoutReport` labels the mode (``pool`` / ``inline`` /
  ``mixed``) and keeps the first failure as ``fallback_reason``;
- inside a pool worker it calls :func:`repro.chaos.maybe_kill_worker`
  once per task, so every fan-out path carries the worker-kill seam.

The long-running analysis service (:mod:`repro.service`) runs its jobs
on the same executors: each job is a picklable run request
(:mod:`repro.reliability.request`) that a worker hands to
:meth:`ResilientRunner.run_one
<repro.reliability.runner.ResilientRunner.run_one>`.  This module also
holds the pieces that setup requires:

- :func:`worker_init` / :func:`in_worker` — pool-worker marking, used
  to confine the worker-kill seam to real pool workers;
- the **executor ladder**: every execution style a caller can ask for
  sits behind the same ``submit``/``shutdown``/context-manager
  contract, so swapping ``inline`` → ``thread`` → ``process`` is a
  one-word configuration change, never a code change:

  ========= ==========================================================
  style     where the work runs
  ========= ==========================================================
  inline    synchronously in the submitting thread — serial fallback
            and deterministic unit testing (:class:`InlineExecutor`)
  thread    a thread pool — cheap concurrency for I/O-light service
            deployments and tests (:class:`ThreadExecutor`)
  process   a process pool — true parallelism with crash isolation
            (:class:`ProcessExecutor`); :func:`fan_out` builds its
            pools from this rung, so tests substitute a broken pool
            with ``monkeypatch.setitem(EXECUTOR_FACTORIES, "process",
            ...)``
  ========= ==========================================================

Work reaches more than one node only through the service gateway
(:mod:`repro.service.gateway`), which routes jobs to shard servers that
each run one of these rungs.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Hashable,
    Optional,
    Sequence,
    Tuple,
)

from ..chaos import injector as chaos

_IN_WORKER = False


def worker_init() -> None:
    """Pool-worker initializer: marks the process as a worker.

    Also adopts any chaos plan the parent exported through the
    environment (``REPRO_CHAOS_PLAN``), so system-level fault injection
    reaches real pool workers with no extra plumbing.
    """
    global _IN_WORKER
    _IN_WORKER = True
    chaos.activate_from_env()


def in_worker() -> bool:
    """True inside a process-pool worker (gates the worker-kill seam)."""
    return _IN_WORKER


# ---------------------------------------------------------------------------
# The executor ladder


class ProcessExecutor(ProcessPoolExecutor):
    """Process-pool rung: true parallelism, crash isolation.

    A plain :class:`~concurrent.futures.ProcessPoolExecutor` with the
    worker initializer pre-wired, so every rung of the ladder is
    constructed the same way: ``Executor(workers)``.
    """

    kind = "process"

    def __init__(self, workers: int) -> None:
        super().__init__(max_workers=workers, initializer=worker_init)
        self.workers = workers


class ThreadExecutor(ThreadPoolExecutor):
    """Thread-pool rung: cheap concurrency, shared interpreter."""

    kind = "thread"

    def __init__(self, workers: int) -> None:
        super().__init__(max_workers=workers)
        self.workers = workers


class InlineExecutor:
    """Executor that runs each submission synchronously on submit.

    The deterministic degenerate pool: no concurrency, no pickling, no
    crash isolation.  Used as the serial fallback and in unit tests
    where scheduling order must be exact.
    """

    kind = "inline"

    def __init__(self, workers: int = 1) -> None:
        self.workers = workers

    def submit(self, fn, *args, **kwargs) -> "Future":
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - mirror pool workers
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, **_: object) -> None:
        return None

    def __enter__(self) -> "InlineExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


def process_executor_factory(workers: int) -> ProcessExecutor:
    return ProcessExecutor(workers)


def thread_executor_factory(workers: int) -> ThreadExecutor:
    return ThreadExecutor(workers)


def inline_executor_factory(workers: int) -> InlineExecutor:
    return InlineExecutor(workers)


ExecutorFactory = Callable[[int], ContextManager]

#: Executor styles selectable by name (``repro-tma serve --executor``).
EXECUTOR_FACTORIES: Dict[str, ExecutorFactory] = {
    "process": process_executor_factory,
    "thread": thread_executor_factory,
    "inline": inline_executor_factory,
}


def executor_factory(style: str) -> ExecutorFactory:
    try:
        return EXECUTOR_FACTORIES[style]
    except KeyError:
        known = sorted(EXECUTOR_FACTORIES)
        raise ValueError(
            f"unknown executor style {style!r}; choose from {known}"
        ) from None


# ---------------------------------------------------------------------------
# Fan-out with inline fallback

#: One fan-out task: a unique key (also the worker-kill seam's chaos
#: key) and the picklable argument handed to ``worker_fn``/``inline_fn``.
Task = Tuple[Hashable, Any]


def resolve_workers(workers: Optional[int], tasks: int) -> int:
    """Pool size for *tasks* tasks: *workers* (default: CPU count),
    clamped to ``[1, tasks]``."""
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, min(int(workers), tasks))


@dataclass
class FanoutReport:
    """How one :func:`fan_out` call ran its tasks."""

    #: "pool" (every task ran in the pool), "inline" (every task ran in
    #: the parent) or "mixed".
    mode: str = "inline"
    workers: int = 1
    #: The first pool failure, as ``"ExcType: message"``; None when the
    #: pool ran every task (or no pool was asked for).
    fallback_reason: Optional[str] = None

    def _fail(self, exc: BaseException) -> None:
        if self.fallback_reason is None:
            self.fallback_reason = f"{type(exc).__name__}: {exc}"


def _pool_call(worker_fn: Callable[[Any], Any], key: Hashable, task: Any) -> Any:
    """Pool-side task wrapper: the one home of the worker-kill seam."""
    if in_worker():
        chaos.maybe_kill_worker(str(key))
    return worker_fn(task)


def fan_out(
    tasks: Sequence[Task],
    worker_fn: Callable[[Any], Any],
    inline_fn: Callable[[Any], Any],
    workers: Optional[int],
    on_result: Optional[Callable[[Hashable, Any], None]] = None,
) -> FanoutReport:
    """Run *tasks* on a process pool, re-running failures inline.

    With more than one worker, each ``(key, task)`` runs as
    ``worker_fn(task)`` in a pool built by
    ``EXECUTOR_FACTORIES["process"]``; *worker_fn* and its results must
    pickle.  Every task whose future raises (a killed worker, a broken
    pool, an unpicklable task) runs again in the parent as
    ``inline_fn(task)``, which must return the same value; if the pool
    cannot be built or refuses submissions, every task without a
    result runs inline.  One worker runs every task inline with no
    pool.  ``on_result(key, value)`` fires once per task in completion
    order (pool results first, then inline ones in task order); an
    exception it raises propagates.
    """
    tasks = list(tasks)
    count = resolve_workers(workers, len(tasks))
    report = FanoutReport(workers=count)
    pending = {key for key, _ in tasks}
    if len(pending) != len(tasks):
        raise ValueError("fan_out task keys must be unique")

    def deliver(key: Hashable, value: Any) -> None:
        pending.discard(key)
        if on_result is not None:
            on_result(key, value)

    if count > 1:
        try:
            pool = EXECUTOR_FACTORIES["process"](count)
        except Exception as exc:  # noqa: BLE001 - no pool: all inline
            report._fail(exc)
            pool = None
        if pool is not None:
            with pool:
                futures: Dict[Future, Hashable] = {}
                try:
                    for key, task in tasks:
                        futures[pool.submit(_pool_call, worker_fn, key, task)] = key
                except Exception as exc:  # noqa: BLE001 - pool refused work
                    report._fail(exc)
                for future in as_completed(futures):
                    try:
                        value = future.result()
                    except Exception as exc:  # noqa: BLE001 - re-run inline
                        report._fail(exc)
                        continue
                    deliver(futures[future], value)

    if count > 1 and len(pending) < len(tasks):
        report.mode = "mixed" if pending else "pool"
    for key, task in tasks:
        if key in pending:
            deliver(key, inline_fn(task))
    return report
