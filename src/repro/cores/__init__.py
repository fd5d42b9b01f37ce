"""Core timing models and Table IV configurations."""

from .base import (BoomConfig, CoreFaultHook, CoreResult, RocketConfig,
                   SignalObserver, check_cycle_budget, check_run_completed)
from .batch import (DEFAULT_GRID, BatchResult, BatchStats, GridPoint,
                    canonical_grid_key, parse_grid, point_from_key,
                    resolve_config_spec, run_batch)
from .boom import BoomCore
from .configs import (ALL_BOOM_CONFIGS, CONFIGS_BY_NAME, GIGA_BOOM,
                      LARGE_BOOM, MEDIUM_BOOM, MEGA_BOOM, ROCKET,
                      SMALL_BOOM, config_by_name)
from .rocket import RocketCore

__all__ = [
    "ALL_BOOM_CONFIGS",
    "BatchResult",
    "BatchStats",
    "BoomConfig",
    "BoomCore",
    "DEFAULT_GRID",
    "GridPoint",
    "CONFIGS_BY_NAME",
    "CoreFaultHook",
    "CoreResult",
    "GIGA_BOOM",
    "LARGE_BOOM",
    "MEDIUM_BOOM",
    "MEGA_BOOM",
    "ROCKET",
    "RocketConfig",
    "RocketCore",
    "SMALL_BOOM",
    "SignalObserver",
    "canonical_grid_key",
    "check_cycle_budget",
    "check_run_completed",
    "config_by_name",
    "parse_grid",
    "point_from_key",
    "resolve_config_spec",
    "run_batch",
]
