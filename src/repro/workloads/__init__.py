"""Workload suite: microbenchmarks, case studies, and SPEC proxies."""

from . import trace_cache
from .data import Lcg, doubles_as_dwords, dwords, ring_permutation
from .registry import (Workload, build_program, build_trace, clear_caches,
                       get_workload, register, workload_names)
from .spec import SPEC_INTRATE

__all__ = [
    "Lcg",
    "SPEC_INTRATE",
    "Workload",
    "trace_cache",
    "build_program",
    "build_trace",
    "clear_caches",
    "doubles_as_dwords",
    "dwords",
    "get_workload",
    "register",
    "ring_permutation",
    "workload_names",
]
