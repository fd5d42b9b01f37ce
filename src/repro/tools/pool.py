"""Shared worker-pool plumbing: fan-out, runner specs, executor ladder.

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

The long-running analysis service (:mod:`repro.service`) runs
:class:`~repro.reliability.runner.ResilientRunner` jobs on the same
executors.  This module also holds the pieces that setup requires:

- :class:`RunnerSpec` — a picklable recipe for rebuilding a resilient
  runner inside a worker process (the runner itself may hold
  unpicklable harness state such as fault injectors);
- :func:`worker_init` / :func:`in_worker` — pool-worker marking, used
  to confine the worker-kill seam to real pool workers;
- the **executor ladder**: every execution style a caller can ask for
  sits behind the same ``submit``/``shutdown``/context-manager
  contract, so swapping ``inline`` → ``process`` → ``shard`` is a
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
  shard     a multi-node shard cluster over HTTP, routed by consistent
            hash of the canonical job key
            (:class:`repro.service.shard.ShardExecutor`)
  ========= ==========================================================

The ``shard`` rung cannot ship arbitrary closures to another machine,
so remotable entry points register a *remote adapter* via
:func:`register_remote`; a shard executor looks the adapter up by
function identity and dispatches through it, and refuses anything
unregistered instead of silently running it locally.
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
from ..reliability.runner import DEFAULT_MAX_CYCLES, ResilientRunner

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


@dataclass(frozen=True)
class RunnerSpec:
    """Picklable recipe for rebuilding a :class:`ResilientRunner`.

    Worker processes cannot receive the runner itself (its harness may
    carry fault injectors or other unpicklable state), so pool callers
    ship this value object instead.  Components that fall outside the
    spec — custom invariant checkers, fault injectors, backoff sleepers
    — are deliberately serial-only: campaigns that need them should run
    through :class:`ResilientRunner` directly.
    """

    core: str = "boom"
    increment_mode: str = "adders"
    mode: str = "baremetal"
    event_names: Optional[Tuple[str, ...]] = None
    scale: float = 1.0
    max_attempts: int = 3
    max_cycles: Optional[int] = DEFAULT_MAX_CYCLES
    backoff_base: float = 0.0
    use_cache: bool = True
    #: Absolute ``time.time()`` wall-clock deadline carried from the
    #: CLI / service job into the worker-side runner: attempts that
    #: cannot start before it fail fast with ``DeadlineExceeded``.
    deadline: Optional[float] = None
    #: Multicore dispatch: a named scenario routes
    #: :func:`repro.service.workers.execute_job` through the lockstep
    #: harness instead of the single-core runner.  The override fields
    #: mirror :meth:`repro.multicore.Scenario.with_overrides`; None
    #: means "use the scenario's own value".
    scenario: Optional[str] = None
    scenario_cores: Optional[int] = None
    scenario_scale: Optional[float] = None
    scenario_shared_bus: Optional[bool] = None
    scenario_arbitration: Optional[str] = None
    #: Windowed dispatch: a window count routes
    #: :func:`repro.service.workers.execute_job` through the windowed
    #: engine (:mod:`repro.cores.windowed`) instead of the single-shot
    #: runner.  ``windows_warmup=None`` defers to the engine default;
    #: ``windows_sampled`` switches to extrapolated sampling (results
    #: are always labeled ``sampled=True``).
    windows: Optional[int] = None
    windows_warmup: Optional[int] = None
    windows_sampled: bool = False

    @classmethod
    def from_runner(cls, runner: ResilientRunner) -> "RunnerSpec":
        harness = runner.harness
        event_names = tuple(runner.event_names) if runner.event_names else None
        return cls(
            core=harness.core,
            increment_mode=harness.increment_mode,
            mode=harness.mode,
            event_names=event_names,
            scale=runner.scale,
            max_attempts=runner.max_attempts,
            max_cycles=runner.max_cycles,
            backoff_base=runner.backoff_base,
            use_cache=runner.use_cache,
            deadline=runner.deadline,
        )

    def build(self) -> ResilientRunner:
        from ..pmu.harness import PerfHarness

        harness = PerfHarness(
            core=self.core,
            increment_mode=self.increment_mode,
            mode=self.mode,
        )
        return ResilientRunner(
            harness=harness,
            event_names=self.event_names,
            scale=self.scale,
            max_attempts=self.max_attempts,
            max_cycles=self.max_cycles,
            backoff_base=self.backoff_base,
            use_cache=self.use_cache,
            deadline=self.deadline,
        )


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
#: The ``shard`` rung registers itself on import of
#: :mod:`repro.service.shard`; :func:`executor_factory` triggers that
#: import lazily so ``tools`` never hard-depends on the service tier.
EXECUTOR_FACTORIES: Dict[str, ExecutorFactory] = {
    "process": process_executor_factory,
    "thread": thread_executor_factory,
    "inline": inline_executor_factory,
}

#: Styles provided by modules that register on first use.
_LAZY_STYLES = {"shard": "repro.service.shard"}


def register_executor(style: str, factory: ExecutorFactory) -> None:
    """Register a ladder rung under *style* (idempotent overwrite)."""
    EXECUTOR_FACTORIES[style] = factory


def executor_factory(style: str) -> ExecutorFactory:
    if style not in EXECUTOR_FACTORIES and style in _LAZY_STYLES:
        import importlib

        importlib.import_module(_LAZY_STYLES[style])
    try:
        return EXECUTOR_FACTORIES[style]
    except KeyError:
        known = sorted(set(EXECUTOR_FACTORIES) | set(_LAZY_STYLES))
        raise ValueError(
            f"unknown executor style {style!r}; choose from {known}"
        ) from None


# ---------------------------------------------------------------------------
# Remote dispatch registry (the shard rung's contract)

#: function → adapter.  An adapter has the signature
#: ``adapter(executor, *args, **kwargs)`` and performs the remote
#: equivalent of ``fn(*args, **kwargs)`` through the shard executor's
#: routing/client machinery, returning the same result type.
_REMOTE_ADAPTERS: Dict[Callable, Callable] = {}


def register_remote(fn: Callable, adapter: Callable) -> None:
    """Mark *fn* as remotable through the given adapter."""
    _REMOTE_ADAPTERS[fn] = adapter


def remote_adapter(fn: Callable) -> Optional[Callable]:
    """The registered remote adapter for *fn*, or None."""
    return _REMOTE_ADAPTERS.get(fn)


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
