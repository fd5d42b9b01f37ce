"""``tma_tool``: the one-call workload -> TMA pipeline.

This is the reproduction's equivalent of the artifact's ``tma_tool``
commands: it assembles the workload, functionally executes it, replays
the trace through the requested core model (with disk-cached results),
and applies the TMA model.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Union

from ..core.tma import TmaResult, compute_tma
from ..cores.base import BoomConfig, CoreResult, RocketConfig
from ..cores.configs import LARGE_BOOM, ROCKET
from ..isa.errors import DeadlineExceeded
from ..uarch.cache import CacheConfig
from ..workloads import workload_names

CoreConfig = Union[RocketConfig, BoomConfig]


class SuiteDeadlineExceeded(DeadlineExceeded):
    """A suite ran out of wall-clock budget; partial results attached.

    ``results`` holds every workload finished before the deadline
    lapsed; ``remaining`` names the workloads left undone.  Finished
    points stay in the result cache (unless it was bypassed), so
    re-running the same command simulates only ``remaining``.
    """

    def __init__(self, message: str, results: List["BatchResult"],
                 remaining: List[str]) -> None:
        super().__init__(message)
        self.results = results
        self.remaining = remaining


def run_core(workload: str, config: CoreConfig, scale: float = 1.0,
             use_cache: bool = True,
             windows: Optional[int] = None,
             warmup: Optional[int] = None,
             sampled: bool = False,
             workers: Optional[int] = None,
             progress: bool = False) -> CoreResult:
    """Replay *workload* through the timing model for *config*.

    A one-point :func:`repro.cores.batch.run_batch`: results are cached
    on disk keyed by a fingerprint of every module that influences
    timing, so repeated benchmark runs are cheap, and a damaged entry
    is quarantined and re-run.

    *windows* shards the trace into K instruction windows simulated in
    parallel and stitched (:mod:`repro.cores.windowed`); *warmup* sets
    the per-window warmup overlap, *sampled* switches to extrapolated
    SimPoint-style sampling (result labeled ``sampled=True``).
    Windowed results use their own cache keys
    (:func:`repro.tools.cache.windowed_cache_key`), so they never
    collide with plain runs.  Workloads in the ``huge`` registry
    tier are *only* runnable through the windowed/sampled paths.
    """
    from ..cores.batch import GridPoint, run_batch
    from ..workloads.registry import HUGE_CATEGORY, workload_category

    if windows is None:
        if sampled:
            raise ValueError("sampled=True requires windows= to be set")
        if workload_category(workload) == HUGE_CATEGORY:
            raise ValueError(
                f"workload {workload!r} is in the {HUGE_CATEGORY!r} tier "
                f"and is only runnable windowed: pass windows= (or "
                f"--windows), optionally with sampled=True")
    return run_batch(
        workload, [GridPoint(config.name, config)], scale=scale,
        use_cache=use_cache, workers=workers, windows=windows,
        warmup=warmup, sampled=sampled, progress=progress).results[0]


def run_tma(workload: str, config: CoreConfig = LARGE_BOOM,
            scale: float = 1.0, use_cache: bool = True,
            windows: Optional[int] = None,
            warmup: Optional[int] = None,
            sampled: bool = False,
            workers: Optional[int] = None,
            progress: bool = False) -> TmaResult:
    """End-to-end: workload name + core config -> TMA classification."""
    return compute_tma(run_core(workload, config, scale=scale,
                                use_cache=use_cache,
                                windows=windows, warmup=warmup,
                                sampled=sampled, workers=workers,
                                progress=progress))


def run_grid(workloads: Sequence[str], points: Sequence["GridPoint"],
             scale: float = 1.0,
             use_cache: bool = True,
             workers: Optional[int] = None,
             deadline: Optional[float] = None,
             windows: Optional[int] = None,
             warmup: Optional[int] = None,
             sampled: bool = False,
             progress: bool = False) -> List["BatchResult"]:
    """Batched design-space sweep: workloads x grid points.

    Each workload runs through :func:`repro.cores.batch.run_batch`,
    which pays the trace fetch, descriptor-table compiles, and TAGE
    fold derivations once per workload instead of once per (workload,
    config) pair — with every per-point result bit-identical to
    :func:`run_core`.  *deadline* is an absolute ``time.time()`` epoch
    checked between workloads; when it lapses,
    :class:`SuiteDeadlineExceeded` carries the finished
    :class:`~repro.cores.batch.BatchResult` list.  With *use_cache*,
    every finished point (also inside an interrupted workload) is in
    the result cache, so re-running the same sweep resumes it.
    """
    from ..cores.batch import run_batch

    results: List["BatchResult"] = []
    for position, name in enumerate(workloads):
        if deadline is not None and time.time() >= deadline:
            remaining = list(workloads[position:])
            raise SuiteDeadlineExceeded(
                f"grid sweep deadline lapsed with {len(remaining)} of "
                f"{len(workloads)} workloads remaining",
                results=results, remaining=remaining)
        results.append(run_batch(
            name, points, scale=scale, use_cache=use_cache,
            workers=workers, windows=windows,
            warmup=warmup, sampled=sampled, progress=progress))
    return results


def micro_suite() -> List[str]:
    """The microbenchmark list shown in Fig. 7a/k."""
    return workload_names("micro")


def spec_suite() -> List[str]:
    """The SPEC CPU2017 intrate proxy list shown in Fig. 7g."""
    return workload_names("spec")


def rocket_with_l1d(size_kib: int) -> RocketConfig:
    """A Rocket config with a resized L1 D-cache (Rocket CS1)."""
    from dataclasses import replace

    l1d = CacheConfig("L1D", size_kib * 1024, 8, 64, hit_latency=2)
    return replace(ROCKET, name=f"Rocket-{size_kib}KiB-L1D", l1d=l1d)
