"""Workload registry: every benchmark the evaluation uses, by name.

A workload is a function from a *scale* factor to assembly source; the
registry assembles and functionally executes on demand, memoizing the
trace (the trace of a workload at a given scale never changes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..isa import ColumnarTrace, Program, assemble, execute
from . import trace_cache


@dataclass(frozen=True)
class Workload:
    """One registered benchmark.

    Attributes:
        name: registry key (e.g. ``"mergesort"`` or ``"505.mcf_r"``).
        category: ``micro``, ``spec``, or ``case-study``.
        source_builder: callable producing assembly text for a scale.
        description: one-line summary shown in reports.
        expected_exit: callable producing the exit code the kernel must
            produce at a given scale (``None`` to skip the check).
    """

    name: str
    category: str
    source_builder: Callable[[float], str]
    description: str = ""
    expected_exit: Optional[Callable[[float], int]] = None


#: The long-trace tier: workloads too slow for full serial simulation.
#: They are excluded from default registry enumeration and runnable
#: only through the windowed/sampled paths (``run_core(windows=...)``).
HUGE_CATEGORY = "huge"


#: Reserved pseudo-workload name meaning "this core slot is unused".
#: Multicore scenarios accept it wherever a workload name is expected;
#: it never reaches :func:`build_trace` (an idle slot instantiates no
#: core at all), so it is deliberately *not* a registry entry.
IDLE_WORKLOAD = "idle"


def is_idle(name: str) -> bool:
    """True when *name* is the reserved idle pseudo-workload."""
    return name == IDLE_WORKLOAD


_REGISTRY: Dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    """Add *workload* to the registry (name must be unique)."""
    if is_idle(workload.name):
        raise ValueError(
            f"workload name {IDLE_WORKLOAD!r} is reserved for idle "
            f"multicore slots")
    if workload.name in _REGISTRY:
        raise ValueError(f"workload {workload.name!r} already registered")
    _REGISTRY[workload.name] = workload
    return workload


def workload_names(category: Optional[str] = None) -> List[str]:
    """All registered names, optionally filtered by category.

    The default (``category=None``) deliberately *excludes* the
    :data:`HUGE_CATEGORY` tier: huge workloads are gated to the
    windowed/sampled simulation paths, so they must never ride into
    full-registry enumerations (tier-1 suites, default sweeps)
    implicitly.  Ask for them explicitly with ``category="huge"``.
    """
    _ensure_loaded()
    if category is None:
        return sorted(name for name, w in _REGISTRY.items()
                      if w.category != HUGE_CATEGORY)
    return sorted(name for name, w in _REGISTRY.items()
                  if w.category == category)


def workload_category(name: str) -> str:
    """The registry category of *name* (KeyError on unknown names)."""
    return get_workload(name).category


def get_workload(name: str) -> Workload:
    """Look up a workload; raises KeyError with suggestions."""
    _ensure_loaded()
    if name not in _REGISTRY:
        if is_idle(name):
            raise KeyError(
                f"{IDLE_WORKLOAD!r} is the reserved idle slot marker, "
                f"not a runnable workload")
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name]


def build_program(name: str, scale: float = 1.0) -> Program:
    """Assemble the workload at *scale* (not cached; see build_trace)."""
    return assemble(get_workload(name).source_builder(scale), name=name)


def _execute(name: str, scale: float) -> ColumnarTrace:
    """Assemble, execute, and check the workload's exit code.

    The ``expected_exit`` check runs here, before the trace reaches
    either trace tier, so a broken kernel fails loudly and leaves
    nothing memoized instead of producing a meaningless
    characterization.
    """
    trace = execute(build_program(name, scale))
    workload = get_workload(name)
    if workload.expected_exit is not None:
        expected = workload.expected_exit(scale)
        if trace.exit_code != expected:
            raise AssertionError(
                f"workload {name!r} exited with {trace.exit_code}, "
                f"expected {expected}")
    return trace


def build_trace(name: str, scale: float = 1.0) -> ColumnarTrace:
    """Assemble and functionally execute the workload (memoized).

    The trace is memoized through :mod:`repro.workloads.trace_cache`
    (in-memory LRU + the store's ``trace`` namespace), so sweeps and
    service bursts execute each workload functionally once.
    """
    get_workload(name)  # fail fast on unknown names
    return trace_cache.get(name, scale, lambda: _execute(name, scale))


def clear_caches() -> None:
    """Drop the in-memory trace tier (mostly for tests)."""
    trace_cache.clear_memory()


_LOADED = False


def _ensure_loaded() -> None:
    """Import the workload modules so their register() calls run."""
    global _LOADED
    if not _LOADED:
        from . import casestudy, huge, micro, spec  # noqa: F401
        _LOADED = True
