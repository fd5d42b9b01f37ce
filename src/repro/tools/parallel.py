"""Parallel sweep engine: the (workload x config) grid across processes.

The paper's evaluation is a grid — Rocket and BOOM configurations
crossed with SPEC proxies and microbenchmarks — and the cycle-level
simulation of each pair is independent of every other pair.
:class:`ParallelSweepRunner` shards that grid across a
:class:`~concurrent.futures.ProcessPoolExecutor` while keeping every
guarantee of the serial :class:`~repro.reliability.runner.ResilientRunner`
it wraps:

- **Deterministic, order-independent merging.**  Each grid pair keeps
  its index in the canonical (workload-major) sweep order; merged
  outcomes are re-assembled by index, so the report is bit-identical to
  a serial sweep no matter which worker finished first.
- **Per-worker seeding.**  Every shard re-seeds :mod:`random` from
  the sweep seed and its shard index before running, so any stochastic
  component a runner grows later stays reproducible under any worker
  scheduling.
- **Watchdog timeouts fail the pair, not the pool.**  The per-run
  ``max_cycles`` budget raises inside the worker, where the resilient
  runner converts it into a failed :class:`RunOutcome`; the process —
  and the rest of the sweep — keeps going.
- **Worker-crash recovery.**  A worker that dies outright (OOM-killed,
  segfaulted) breaks its pool future; the engine re-runs the dead
  worker's shard serially in the parent and reports the crash count.
- **Graceful serial degradation.**  If the grid cannot be pickled or
  the platform cannot fork a pool, the engine silently runs the exact
  serial sweep instead and records why.

Cache coordination comes for free: workers share the on-disk result
cache through :func:`repro.tools.cache.store`'s per-process temp files
and atomic replace.  Functional traces are coordinated the same way:
before sharding, the parent *pre-warms* the trace-memoization disk tier
(:mod:`repro.workloads.trace_cache`) with each unique workload's
columnar trace, so every pool worker unpacks compact column bytes
instead of re-executing the workload — and nothing ever pickles a
``DynInst`` list across the process boundary.
"""

from __future__ import annotations

import os
import pickle
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..chaos import injector as chaos
from ..cores.base import BoomConfig, RocketConfig
from ..reliability.runner import ResilientRunner, RunOutcome, SweepReport
from ..workloads import build_trace, trace_cache
from .checkpoint import (
    SweepCheckpoint,
    deserialize_outcome,
    point_key,
    serialize_outcome,
)
from .pool import (RunnerSpec, executor_factory as resolve_executor_factory,
                   in_worker, process_executor_factory, worker_init)

CoreConfig = Union[RocketConfig, BoomConfig]

#: Test hook: a worker that is about to run this workload dies with
#: ``os._exit`` instead, simulating a segfaulting/OOM-killed process.
#: Only honoured inside pool workers, so the serial recovery path (and
#: plain serial sweeps) complete normally.
_CRASH_ENV = "REPRO_PARALLEL_CRASH_WORKLOAD"

# Pool plumbing lives in repro.tools.pool (shared with the analysis
# service); these aliases keep the engine's historical import surface.
_worker_init = worker_init
_default_executor_factory = process_executor_factory


#: One grid pair: (canonical index, workload name, core config).
SweepTask = Tuple[int, str, CoreConfig]

#: What one shard hands back: indexed outcomes + quarantined cache keys.
ShardResult = Tuple[List[Tuple[int, RunOutcome]], List[str]]


def _run_shard(
    spec: RunnerSpec,
    shard_index: int,
    seed: int,
    tasks: Sequence[SweepTask],
) -> ShardResult:
    """Run one shard of the grid (in a pool worker or in the parent).

    Returns ``(indexed outcomes, quarantined cache keys)``; the indices
    let the parent merge shards deterministically.
    """
    random.seed(seed * 1_000_003 + shard_index)
    crash_workload = os.environ.get(_CRASH_ENV)
    runner = spec.build()
    report = SweepReport()
    indexed: List[Tuple[int, RunOutcome]] = []
    for index, workload, config in tasks:
        if in_worker():
            if crash_workload == workload:
                os._exit(13)
            # Chaos worker-kill seam: only real pool workers die (the
            # parent's serial recovery pass skips the hook), so every
            # injected kill is recoverable and sweeps terminate.
            chaos.maybe_kill_worker(f"shard:{workload}:{config.name}")
        indexed.append((index, runner.run_one(workload, config, report)))
    return indexed, report.quarantined_keys


@dataclass
class ParallelSweepReport(SweepReport):
    """A :class:`SweepReport` plus how the grid was executed."""

    engine: str = "serial"  # "parallel" | "serial" | "serial-fallback"
    workers: int = 1
    shards: int = 1
    worker_crashes: int = 0
    fallback_reason: Optional[str] = None
    recovered_indices: List[int] = field(default_factory=list)
    #: Grid indices restored from a sweep checkpoint instead of re-run.
    resumed_indices: List[int] = field(default_factory=list)

    def summary(self) -> str:
        header = (
            f"engine={self.engine} workers={self.workers} "
            f"shards={self.shards} crashes={self.worker_crashes}"
        )
        if self.resumed_indices:
            header += f" resumed={len(self.resumed_indices)}"
        if self.fallback_reason:
            header += f" fallback=[{self.fallback_reason}]"
        return header + "\n" + super().summary()


class ParallelSweepRunner:
    """Fault-tolerant sweeps, sharded across a process pool.

    ``runner`` supplies the sweep semantics (watchdog budget, retries,
    cache policy, events, scale); it runs serial shards directly and is
    distilled into a :class:`RunnerSpec` for pool workers.

    ``executor`` picks a rung of the shared executor ladder
    (:mod:`repro.tools.pool`): ``process`` (the default),  ``thread``,
    ``inline``, or ``shard`` — the last dispatches each grid shard to
    a multi-node service cluster through
    :class:`repro.service.shard.ShardExecutor` (``REPRO_SHARDS``).
    ``executor_factory`` is injectable for tests and wins over
    ``executor``: it receives the worker count and must return a
    ``ProcessPoolExecutor``-compatible context manager.  Any failure
    to build the pool or submit the shards degrades to the serial
    sweep.
    """

    def __init__(
        self,
        runner: Optional[ResilientRunner] = None,
        max_workers: Optional[int] = None,
        seed: int = 0,
        executor_factory=None,
        executor: str = "process",
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.runner = runner or ResilientRunner()
        self.max_workers = max_workers or min(4, os.cpu_count() or 1)
        self.seed = seed
        self.executor = executor
        self.executor_factory = (executor_factory
                                 or resolve_executor_factory(executor))

    # ------------------------------------------------------------------

    @staticmethod
    def build_grid(
        workloads: Sequence[str],
        configs: Sequence[CoreConfig],
    ) -> List[SweepTask]:
        """The canonical workload-major grid order of the serial sweep."""
        grid: List[SweepTask] = []
        for workload in workloads:
            for config in configs:
                grid.append((len(grid), workload, config))
        return grid

    @staticmethod
    def shard_grid(
        grid: Sequence[SweepTask],
        shards: int,
    ) -> List[List[SweepTask]]:
        """Round-robin sharding: deterministic and load-balanced (long
        workloads land in different shards instead of one hot shard)."""
        return [list(grid[start::shards]) for start in range(shards)]

    # ------------------------------------------------------------------

    def run_grid(
        self,
        workloads: Sequence[str],
        configs: Sequence[CoreConfig],
        checkpoint: Optional[SweepCheckpoint] = None,
    ) -> ParallelSweepReport:
        """Sweep the grid; parallel when possible, serial otherwise.

        With a *checkpoint*, pairs it already holds are restored
        instead of re-run, and every freshly completed pair is recorded
        as it lands — so a sweep killed mid-flight resumes from its
        last completed pair.  The caller owns the checkpoint lifecycle
        (``clear()`` after a fully successful sweep).
        """
        grid = self.build_grid(workloads, configs)
        resumed = self._resume_entries(grid, checkpoint)
        remaining = [task for task in grid if task[0] not in resumed]
        workers = min(self.max_workers, len(remaining)) or 1
        if workers <= 1:
            return self._run_serial(grid, engine="serial",
                                    checkpoint=checkpoint, resumed=resumed)

        self._prewarm_traces([w for _, w, _ in remaining])
        spec = RunnerSpec.from_runner(self.runner)
        shards = self.shard_grid(remaining, workers)
        try:
            # Pre-flight: anything unpicklable (exotic configs, spec
            # extensions) must surface here, not inside the pool.
            pickle.dumps((spec, shards))
        except Exception as exc:  # noqa: BLE001 - any failure degrades
            reason = f"unpicklable sweep: {type(exc).__name__}: {exc}"
            return self._run_serial(grid, engine="serial-fallback",
                                    reason=reason, checkpoint=checkpoint,
                                    resumed=resumed)

        merged: Dict[int, RunOutcome] = dict(resumed)
        quarantined: Dict[int, List[str]] = {}
        crashed_shards: List[int] = []
        try:
            with self.executor_factory(workers) as pool:
                futures = {}
                for shard_index, shard in enumerate(shards):
                    future = pool.submit(
                        _run_shard,
                        spec,
                        shard_index,
                        self.seed,
                        shard,
                    )
                    futures[future] = shard_index
                for future, shard_index in futures.items():
                    try:
                        indexed, keys = future.result()
                    except Exception:  # noqa: BLE001 - dead worker
                        crashed_shards.append(shard_index)
                        continue
                    for index, outcome in indexed:
                        merged[index] = outcome
                    quarantined[shard_index] = keys
                    self._record(checkpoint, [o for _, o in indexed])
        except Exception as exc:  # noqa: BLE001 - no pool at all
            reason = f"no process pool: {type(exc).__name__}: {exc}"
            return self._run_serial(grid, engine="serial-fallback",
                                    reason=reason, checkpoint=checkpoint,
                                    resumed=resumed)

        report = ParallelSweepReport(
            engine="parallel",
            workers=workers,
            shards=len(shards),
            worker_crashes=len(crashed_shards),
            resumed_indices=sorted(resumed),
        )
        # Recover every pair a dead worker took down with it, serially
        # and in-process (the crash hook only fires inside workers).
        for shard_index in sorted(crashed_shards):
            pending = [t for t in shards[shard_index] if t[0] not in merged]
            indexed, keys = _run_shard(spec, shard_index, self.seed, pending)
            for index, outcome in indexed:
                merged[index] = outcome
                report.recovered_indices.append(index)
            quarantined[shard_index] = keys
            self._record(checkpoint, [o for _, o in indexed])

        report.outcomes = [merged[index] for index, _, _ in grid]
        for shard_index in sorted(quarantined):
            report.quarantined_keys.extend(quarantined[shard_index])
        return report

    # ------------------------------------------------------------------

    def _resume_entries(
        self,
        grid: Sequence[SweepTask],
        checkpoint: Optional[SweepCheckpoint],
    ) -> Dict[int, RunOutcome]:
        """Grid indices restorable from the checkpoint (ok pairs only;
        failed pairs are retried on resume — deterministic failures
        simply fail again, flaky ones get another chance)."""
        if checkpoint is None:
            return {}
        entries = checkpoint.load()
        resumed: Dict[int, RunOutcome] = {}
        for index, workload, config in grid:
            payload = entries.get(point_key(workload, config.name))
            if payload is None:
                continue
            try:
                outcome = deserialize_outcome(payload)
            except Exception:  # noqa: BLE001 - damaged entry: re-run pair
                continue
            if outcome.ok:
                resumed[index] = outcome
        return resumed

    @staticmethod
    def _record(
        checkpoint: Optional[SweepCheckpoint],
        outcomes: Sequence[RunOutcome],
    ) -> None:
        """Persist freshly completed pairs (atomic, best-effort)."""
        if checkpoint is None:
            return
        items = {
            point_key(o.workload, o.config_name): serialize_outcome(o)
            for o in outcomes
            if o.ok
        }
        if items:
            checkpoint.record_many(items)

    # ------------------------------------------------------------------

    def _prewarm_traces(self, workloads: Sequence[str]) -> None:
        """Publish each unique workload's trace to the shared disk tier.

        Runs in the parent before any shard is dispatched, so every
        worker's first lookup is a disk hit (unpacking column bytes)
        rather than a redundant functional execution.  Failures are
        swallowed: a workload that cannot execute here will fail inside
        a worker too, where the resilient runner records it properly.
        """
        if not trace_cache.disk_enabled():
            return
        for workload in dict.fromkeys(workloads):
            try:
                build_trace(workload, scale=self.runner.scale)
            except Exception:  # noqa: BLE001 - worker reports the real error
                continue

    # ------------------------------------------------------------------

    def _run_serial(
        self,
        grid: Sequence[SweepTask],
        engine: str,
        reason: Optional[str] = None,
        checkpoint: Optional[SweepCheckpoint] = None,
        resumed: Optional[Dict[int, RunOutcome]] = None,
    ) -> ParallelSweepReport:
        """The exact serial sweep, shaped like a parallel report."""
        resumed = resumed or {}
        report = ParallelSweepReport(
            engine=engine,
            workers=1,
            shards=1,
            fallback_reason=reason,
            resumed_indices=sorted(resumed),
        )
        for index, workload, config in grid:
            outcome = resumed.get(index)
            if outcome is None:
                outcome = self.runner.run_one(workload, config, report)
                self._record(checkpoint, [outcome])
            report.outcomes.append(outcome)
        return report
