"""Batched multi-config timing engine: one trace pass, N core configs.

A design-space sweep replays the *same* workload trace through many
core configurations ({Rocket, BOOM-s/m/l} x cache/branch/width
variants).  Run independently, every configuration re-pays the shared
floor: fetching (or functionally re-executing) the trace, compiling
the per-family descriptor tables, and re-deriving the TAGE history
folds that are a pure function of the masked global history.  PR 5
measured that floor at ~27% of columnar wall time — a grid of four
burns it four times per trace.

:func:`run_batch` runs a whole grid in a single pass over a shared
:class:`~repro.isa.columnar.ColumnarTrace`:

- the trace is fetched/built **once** and every grid point replays the
  same immutable columns (functional state is read-only to the timing
  engines);
- the Rocket/BOOM descriptor tables are compiled **once per family**
  via ``ColumnarTrace.timing_table`` and shared by every point of that
  family;
- the TAGE fold memos — pure ``history -> (index fold, tag fold)``
  functions — are shared across every same-geometry table in the grid
  (:func:`repro.uarch.branch.share_fold_caches`);
- on multi-core hosts, grid points fan out over a process pool through
  :func:`repro.tools.pool.fan_out` (fork workers inherit the parent's
  warm in-memory trace tier); a point whose worker fails re-runs in
  the parent.

What is **never** shared: core state.  Every grid point gets a fresh
core instance, because predictor/cache/TLB contents evolve under a
config-dependent interleaving of predict-at-fetch and
resolve-at-execute — sharing them would leak state between configs.
Each point's :class:`~repro.cores.base.CoreResult` is therefore
bit-identical to a standalone single-config run, which remains the
oracle (enforced by ``tests/test_batch_engine.py`` in the tier-1
suite).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..isa.columnar import ColumnarTrace
from ..uarch.branch import share_fold_caches
from ..uarch.cache import CacheConfig
from .base import BoomConfig, CoreResult, RocketConfig
from .boom import BoomCore
from .configs import config_by_name
from .descriptors import build_boom_table, build_rocket_table
from .rocket import RocketCore

CoreConfig = Union[RocketConfig, BoomConfig]

#: The paper's canonical evaluation grid (Table IV minus the XL cores).
DEFAULT_GRID = "rocket,small-boom,medium-boom,large-boom"

#: Variant axes a grid spec may cross with its base configs.  Axis
#: order in a canonical point key is alphabetical, so two spellings of
#: the same point collapse to one key.
VARY_AXES = ("bp", "fetch", "l1d")

_BP_KINDS = ("tage", "gshare", "bimodal")


@dataclass(frozen=True)
class GridPoint:
    """One grid coordinate: a canonical key and the config it names."""

    key: str
    config: CoreConfig


@dataclass
class BatchStats:
    """How a batch run shared (or skipped) work across its grid."""

    #: The fan-out label (:class:`~repro.tools.pool.FanoutReport`).
    mode: str = "inline"  # "inline" | "pool" | "mixed"
    workers: int = 1
    points_total: int = 0
    #: Points restored from a sweep checkpoint.
    restored: int = 0
    #: Points served by the on-disk result cache.
    cache_hits: int = 0
    #: Keys of the points whose result-cache entry failed verification
    #: (corrupt, truncated, checksum mismatch): deleted and re-run.
    quarantined: List[str] = field(default_factory=list)
    #: Points actually simulated this run.
    executed: int = 0
    #: Trace fetches paid by this batch (1; a per-config sweep pays N).
    trace_fetches: int = 0
    #: Descriptor-table compiles amortised (points beyond the first in
    #: each core family).
    tables_shared: int = 0
    #: TAGE tables adopting another same-geometry table's fold memo.
    fold_caches_shared: int = 0
    #: Set when the process pool failed and the run finished inline.
    fallback_reason: Optional[str] = None
    wall_s: float = 0.0

    def share_rate(self) -> float:
        """Fraction of points that skipped simulation entirely."""
        if not self.points_total:
            return 0.0
        return (self.restored + self.cache_hits) / self.points_total


@dataclass
class BatchResult:
    """Per-point results of one batched grid run, in grid order."""

    workload: str
    scale: float
    points: List[GridPoint]
    results: List[CoreResult]
    tma: List[object]
    stats: BatchStats = field(default_factory=BatchStats)

    def result_for(self, key: str) -> CoreResult:
        for point, result in zip(self.points, self.results):
            if point.key == key:
                return result
        raise KeyError(f"no grid point {key!r}")


# ----------------------------------------------------------------------
# Grid specs and canonical keys


def _axis_variants(config: CoreConfig, axis: str, value: str) -> CoreConfig:
    """Apply one ``axis=value`` variant; KeyError if not applicable."""
    if axis == "l1d":
        kib = int(value)
        if kib <= 0:
            raise ValueError(f"l1d size must be positive, got {value!r}")
        l1d = CacheConfig("L1D", kib * 1024, 8, 64, hit_latency=2)
        return replace(config, name=f"{config.name}+l1d={kib}KiB", l1d=l1d)
    if axis == "fetch":
        width = int(value)
        if width <= 0:
            raise ValueError(f"fetch width must be positive, got {value!r}")
        return replace(config, name=f"{config.name}+fetch={width}", fetch_width=width)
    if axis == "bp":
        if value not in _BP_KINDS:
            raise ValueError(f"unknown predictor {value!r}; choose from {_BP_KINDS}")
        if not isinstance(config, BoomConfig):
            # Rocket's BHT is not a pluggable direction predictor; the
            # axis silently skips Rocket points (mirroring the paper's
            # predictor ablation, which is BOOM-only).
            raise KeyError("bp axis applies to BOOM configs only")
        return replace(config, name=f"{config.name}+bp={value}", branch_predictor=value)
    raise ValueError(f"unknown variant axis {axis!r}; choose from {VARY_AXES}")


def _parse_vary(vary: Sequence[str]) -> List[Tuple[str, List[str]]]:
    axes: Dict[str, List[str]] = {}
    for item in vary:
        axis, sep, raw = item.partition("=")
        axis = axis.strip().lower()
        if not sep or not raw.strip():
            raise ValueError(f"variant spec {item!r} is not of the form axis=v1,v2")
        if axis not in VARY_AXES:
            raise ValueError(f"unknown variant axis {axis!r}; choose from {VARY_AXES}")
        values = [v.strip() for v in raw.split(",") if v.strip()]
        if not values:
            raise ValueError(f"variant spec {item!r} names no values")
        axes.setdefault(axis, [])
        for value in values:
            if value not in axes[axis]:
                axes[axis].append(value)
    # Alphabetical axis order makes point keys canonical regardless of
    # the order --vary flags were given in.
    return sorted(axes.items())


def parse_grid(spec: str = DEFAULT_GRID, vary: Sequence[str] = ()) -> List[GridPoint]:
    """Expand a grid spec into canonical, de-duplicated grid points.

    *spec* is a comma-separated list of Table IV config names (or
    canonical point keys such as ``large-boom+l1d=16``); *vary* is a
    sequence of ``axis=v1,v2`` strings crossed over every base config
    the axis applies to.  Duplicate points (same canonical key)
    collapse to the first occurrence, so overlapping specs merge
    cleanly.
    """
    tokens = [tok.strip().lower() for tok in spec.split(",") if tok.strip()]
    if not tokens:
        raise ValueError(f"grid spec {spec!r} names no configurations")
    axes = _parse_vary(vary)
    points: List[GridPoint] = []
    seen = set()
    for token in tokens:
        base = point_from_key(token)
        combos: List[GridPoint] = [base]
        for axis, values in axes:
            crossed: List[GridPoint] = []
            for point in combos:
                for value in values:
                    try:
                        config = _axis_variants(point.config, axis, value)
                    except KeyError:
                        # Axis not applicable to this family: the point
                        # rides through un-crossed (deduped below).
                        crossed.append(point)
                        continue
                    crossed.append(GridPoint(f"{point.key}+{axis}={value}", config))
            combos = crossed
        for point in combos:
            if point.key not in seen:
                seen.add(point.key)
                points.append(point)
    return points


def point_from_key(key: str) -> GridPoint:
    """Rebuild a grid point from its canonical key.

    Keys are self-describing (``base+axis=value+...``), so a service
    worker can resolve a variant config that is not in the registry.
    """
    parts = [part.strip() for part in key.strip().lower().split("+")]
    if not parts or not parts[0]:
        raise ValueError(f"empty grid point key {key!r}")
    config = config_by_name(parts[0])
    canonical = parts[0]
    previous = ""
    for part in parts[1:]:
        axis, sep, value = part.partition("=")
        if not sep or not value:
            raise ValueError(f"malformed axis {part!r} in grid point {key!r}")
        if axis <= previous:
            raise ValueError(
                f"grid point {key!r} axes are not in canonical "
                f"(alphabetical, unrepeated) order"
            )
        previous = axis
        try:
            config = _axis_variants(config, axis, value)
        except KeyError as exc:
            raise ValueError(f"axis {axis!r} does not apply to {parts[0]!r}") from exc
        canonical += f"+{axis}={value}"
    return GridPoint(canonical, config)


def resolve_config_spec(name: str) -> CoreConfig:
    """Registry lookup widened to canonical grid point keys."""
    try:
        return config_by_name(name)
    except KeyError:
        return point_from_key(name).config


def canonical_grid_key(workload: str, points: Sequence[GridPoint], scale: float) -> str:
    """Order-independent identity of one (workload, grid, scale).

    Two clients submitting the same grid in a different point order (or
    with duplicate points) get the same key, so grid-level records
    coalesce exactly like per-job dedup does.
    """
    digest = hashlib.sha256()
    digest.update(workload.encode())
    digest.update(f"{scale:.6f}".encode())
    for key in sorted({point.key for point in points}):
        digest.update(key.encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:24]


# ----------------------------------------------------------------------
# Execution


def make_core(config: CoreConfig):
    """Fresh core for one grid point (state is never shared)."""
    if isinstance(config, RocketConfig):
        return RocketCore(config)
    return BoomCore(config)


def _precompile_tables(trace: ColumnarTrace, pending: Sequence[GridPoint]) -> int:
    """Compile each family's descriptor table once; return shares."""
    builders = {"rocket": build_rocket_table, "boom": build_boom_table}
    counts: Dict[str, int] = {}
    for point in pending:
        family = "rocket" if isinstance(point.config, RocketConfig) else "boom"
        counts[family] = counts.get(family, 0) + 1
    for family in sorted(counts):
        trace.timing_table(family, builders[family])
    return sum(count - 1 for count in counts.values())


def _run_inline(
    workload: str,
    pending: Sequence[GridPoint],
    scale: float,
    stats: BatchStats,
    note: Callable[[GridPoint, CoreResult], None],
) -> None:
    from ..workloads import build_trace

    trace = build_trace(workload, scale=scale)
    stats.trace_fetches = 1
    stats.tables_shared = _precompile_tables(trace, pending)
    cores = [make_core(point.config) for point in pending]
    stats.fold_caches_shared = share_fold_caches(
        getattr(core, "predictor", None) for core in cores
    )
    for point, core in zip(pending, cores):
        note(point, core.run(trace))


def point_task_key(workload: str, point: GridPoint) -> str:
    """Fan-out key of one grid point; also its worker-kill chaos key."""
    return f"point:{workload}:{point.key}"


def _run_point(task: Tuple[str, float, CoreConfig]) -> CoreResult:
    """Fan-out entry (pool worker or parent): one point, fresh core."""
    from ..workloads import build_trace

    workload, scale, config = task
    return make_core(config).run(build_trace(workload, scale=scale))


def run_batch(
    workload: str,
    points: Optional[Sequence[GridPoint]] = None,
    *,
    scale: float = 1.0,
    use_cache: bool = True,
    checkpoint=None,
    workers: Optional[int] = None,
    windows: Optional[int] = None,
    warmup: Optional[int] = None,
    sampled: bool = False,
    progress: bool = False,
) -> BatchResult:
    """Run one workload across a whole config grid in a single pass.

    Every point's :class:`CoreResult` is bit-identical to a standalone
    :func:`repro.tools.tma_tool.run_core` of the same (workload,
    config, scale) — the standalone run stays the oracle.

    *checkpoint* (a :class:`~repro.tools.checkpoint.SweepCheckpoint`)
    records each point as it completes and restores completed points on
    a re-run, so a killed grid resumes instead of restarting; the
    caller owns ``checkpoint.clear()``.  *workers* caps the process
    fan-out (default: the machine's core count; 1 forces the inline
    shared-trace path).  Result-cache entries that fail verification
    are deleted, re-run, and listed in ``stats.quarantined``.

    With *windows*, every pending point runs through the windowed
    engine (:func:`repro.cores.windowed.run_windowed_points`): the pool
    work unit becomes one (grid point, window) pair, so a grid of P
    points over K windows exposes P*K tasks and keeps every worker busy
    even on small grids.  Windowed results use their own cache and
    checkpoint keys (the window plan is folded in), so they never
    satisfy — or poison — plain batch entries.
    """
    from ..core.tma import compute_tma
    from ..tools import cache as result_cache
    from ..tools.checkpoint import point_key
    from ..tools.pool import fan_out, resolve_workers

    if points is None:
        points = parse_grid(DEFAULT_GRID)
    points = list(points)
    if not points:
        raise ValueError("empty grid: nothing to run")
    keys = [point.key for point in points]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate grid point keys in {keys}")

    stats = BatchStats(points_total=len(points))
    done: Dict[str, CoreResult] = {}
    start = time.perf_counter()

    if windows is not None:
        from .windowed import normalized_warmup

        warm = normalized_warmup(windows, warmup, sampled)

        def result_key(point: GridPoint) -> str:
            return result_cache.windowed_cache_key(
                workload, scale, point.config, windows, warm, sampled
            )

        def ckpt_key(point: GridPoint) -> str:
            return (
                point_key(workload, point.key)
                + f";windows={windows};warmup={warm};sampled={int(sampled)}"
            )

    else:

        def result_key(point: GridPoint) -> str:
            return result_cache.cache_key(workload, scale, point.config)

        def ckpt_key(point: GridPoint) -> str:
            return point_key(workload, point.key)

    if checkpoint is not None:
        for point in points:
            payload = checkpoint.get(ckpt_key(point))
            if payload is None:
                continue
            try:
                done[point.key] = result_cache.deserialize_result(payload)
                stats.restored += 1
            except Exception:  # noqa: BLE001 - damaged entry: re-run
                pass

    if use_cache:
        for point in points:
            if point.key in done:
                continue
            key = result_key(point)
            cached, damage = result_cache.load_or_quarantine(key)
            if damage is not None:
                stats.quarantined.append(point.key)
            elif cached is not None:
                done[point.key] = cached
                stats.cache_hits += 1
                if checkpoint is not None:
                    checkpoint.record(
                        ckpt_key(point),
                        result_cache.serialize_result(cached),
                    )

    def note(point: GridPoint, result: CoreResult) -> None:
        done[point.key] = result
        stats.executed += 1
        if use_cache:
            result_cache.store(result_key(point), result)
        if checkpoint is not None:
            checkpoint.record(
                ckpt_key(point),
                result_cache.serialize_result(result),
            )

    pending = [point for point in points if point.key not in done]
    report = None
    if pending and windows is not None:
        from .windowed import run_windowed_points

        stats.trace_fetches = 1
        _, report = run_windowed_points(
            workload,
            pending,
            windows=windows,
            scale=scale,
            warmup=warmup,
            sampled=sampled,
            workers=workers,
            progress=progress,
            note=note,
        )
    elif resolve_workers(workers, len(pending)) > 1:
        from ..workloads import build_trace

        # Warm the trace tiers in the parent: forked workers inherit the
        # in-memory tier, non-fork starts hit the disk tier.
        build_trace(workload, scale=scale)
        stats.trace_fetches = 1
        by_key = {point_task_key(workload, point): point for point in pending}
        report = fan_out(
            [(key, (workload, scale, point.config)) for key, point in by_key.items()],
            _run_point,
            _run_point,
            workers,
            on_result=lambda key, result: note(by_key[key], result),
        )
    elif pending:
        _run_inline(workload, pending, scale, stats, note)
    if report is not None:
        stats.mode = report.mode
        stats.workers = report.workers
        stats.fallback_reason = report.fallback_reason

    stats.wall_s = time.perf_counter() - start
    results = [done[key] for key in keys]
    return BatchResult(
        workload=workload,
        scale=scale,
        points=points,
        results=results,
        tma=[compute_tma(result) for result in results],
        stats=stats,
    )
