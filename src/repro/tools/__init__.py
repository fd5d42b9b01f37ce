"""High-level tooling: the tma_tool pipeline and the result cache."""

from .tma_tool import (micro_suite, rocket_with_l1d, run_core, run_tma,
                       spec_suite)

__all__ = [
    "micro_suite",
    "rocket_with_l1d",
    "run_core",
    "run_tma",
    "spec_suite",
]
