"""Cross-config functional trace memoization: memory tier + the store.

A (workload × core-config) sweep re-uses one functional trace per
workload across every config point, and a burst of service jobs re-uses
it across every job — the trace depends only on ``(workload,
input-seed/scale, isa options)``, never on the core config.  This
module memoizes packed :class:`~repro.isa.columnar.ColumnarTrace`
values behind that key in two tiers:

- an **in-memory LRU** per process, of :data:`MEMORY_ENTRIES` traces,
  in front of
- the ``trace`` namespace of the on-disk store
  (:mod:`repro.tools.cache`), which holds the
  :meth:`~repro.isa.columnar.ColumnarTrace.pack` bytes for every worker
  process of a sweep or service instance, sealed, verified on read and
  counted by the store's budget.

Keying rules: the disk key hashes the workload name, the scale (the
suite's input seed — workloads are deterministic functions of it), and
a fingerprint of the source of every module in ``repro.isa`` and
``repro.workloads``.  Editing any of those invalidates every entry
automatically; core-config fields are deliberately *excluded* so
a 64-point sweep executes each workload functionally once.

Hit/miss counters are process-local; :func:`stats` snapshots them so
runners can attach per-run deltas to outcomes and ship them back to
the parent / service metrics registry.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from ..isa.columnar import ColumnarTrace, unpack
from ..isa.errors import CacheIntegrityError

#: Traces the in-memory tier keeps per process.
MEMORY_ENTRIES = 64

_STAT_KEYS = ("mem_hits", "disk_hits", "misses", "disk_corrupt")

_lock = threading.Lock()
_mem: "OrderedDict[Tuple[str, float], ColumnarTrace]" = OrderedDict()
_stats: Dict[str, int] = {key: 0 for key in _STAT_KEYS}


def fingerprint() -> str:
    """Hash of every functional-semantics module's source."""
    from ..tools.cache import TRACE_PACKAGES, source_fingerprint

    return source_fingerprint(TRACE_PACKAGES)


def trace_key(workload: str, scale: float) -> str:
    """Store key: (workload, input scale, semantics fingerprint)."""
    digest = hashlib.sha256()
    digest.update(fingerprint().encode())
    digest.update(workload.encode())
    digest.update(f"{scale:.6f}".encode())
    return digest.hexdigest()[:24]


def identity(workload: str, scale: float) -> str:
    """What a trace entry is, without the fingerprint (the fault key's)."""
    return f"{workload}:{scale:.6f}"


# ----------------------------------------------------------------------
# stats


def stats() -> Dict[str, int]:
    """Snapshot of the process-local hit/miss counters."""
    with _lock:
        return dict(_stats)


def stats_delta(before: Dict[str, int],
                after: Optional[Dict[str, int]] = None) -> Dict[str, int]:
    """Counter movement between two :func:`stats` snapshots."""
    if after is None:
        after = stats()
    return {key: after.get(key, 0) - before.get(key, 0)
            for key in _STAT_KEYS}


def hit_rate(counters: Dict[str, int]) -> float:
    """Fraction of lookups served by either tier (0.0 when idle)."""
    hits = counters.get("mem_hits", 0) + counters.get("disk_hits", 0)
    total = hits + counters.get("misses", 0)
    return hits / total if total else 0.0


def _bump(key: str) -> None:
    with _lock:
        _stats[key] = _stats.get(key, 0) + 1


# ----------------------------------------------------------------------
# the memoized lookup


def _mem_put(key: Tuple[str, float], trace: ColumnarTrace) -> None:
    with _lock:
        _mem[key] = trace
        _mem.move_to_end(key)
        while len(_mem) > MEMORY_ENTRIES:
            _mem.popitem(last=False)


def get(workload: str, scale: float,
        builder: Callable[[], ColumnarTrace]) -> ColumnarTrace:
    """Memoized functional trace for ``(workload, scale)``.

    Lookup order: in-memory LRU, then the store's ``trace`` namespace,
    then *builder* (functional execution), publishing the result to
    both tiers.  A damaged stored entry is deleted by the store and
    counted as ``disk_corrupt``; the trace is then rebuilt.  Counters
    record which tier served each call.
    """
    from ..tools import cache

    key = (workload, scale)
    with _lock:
        trace = _mem.get(key)
        if trace is not None:
            _mem.move_to_end(key)
            _stats["mem_hits"] += 1
            return trace
    disk_key = trace_key(workload, scale)
    try:
        trace = cache.read("trace", disk_key, unpack)
    except CacheIntegrityError:
        _bump("disk_corrupt")
    if trace is not None:
        _bump("disk_hits")
        _mem_put(key, trace)
        return trace
    trace = builder()
    _bump("misses")
    cache.write("trace", disk_key, trace.pack(), identity(workload, scale))
    _mem_put(key, trace)
    return trace


def clear_memory() -> None:
    """Drop the in-memory tier and zero the counters (tests)."""
    with _lock:
        _mem.clear()
        for key in _STAT_KEYS:
            _stats[key] = 0
