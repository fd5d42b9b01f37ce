"""Cross-config functional trace memoization: memory + disk tiers.

A (workload × core-config) sweep re-uses one functional trace per
workload across every config point, and a burst of service jobs re-uses
it across every job — the trace depends only on ``(workload,
input-seed/scale, isa options)``, never on the core config.  This
module memoizes packed :class:`~repro.isa.columnar.ColumnarTrace`
values behind that key in two bounded tiers:

- an **in-memory LRU** (per process; bounded entry count), and
- a **disk tier** under ``<result cache dir>/traces`` holding the
  :meth:`~repro.isa.columnar.ColumnarTrace.pack` bytes, shared by every
  worker process of a sweep or service instance (atomic tmp+rename
  writes; LRU-pruned by entry count).

Keying rules: the cache key hashes the workload name, the scale (the
suite's input seed — workloads are deterministic functions of it), and
a fingerprint of the source of every module in ``repro.isa`` and
``repro.workloads``.  Editing any of those invalidates every entry
automatically; core-config fields are deliberately *excluded* so
a 64-point sweep executes each workload functionally once.

Environment knobs::

    REPRO_TRACE_CACHE=0             disable the disk tier
    REPRO_TRACE_CACHE_MEM=64        in-memory LRU entries
    REPRO_TRACE_CACHE_ENTRIES=512   disk-tier entry budget (LRU prune)

Hit/miss counters are process-local; :func:`stats` snapshots them so
runners can attach per-run deltas to outcomes and ship them back to
the parent / service metrics registry.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from ..isa.columnar import ColumnarTrace, unpack

_DISK_ENV = "REPRO_TRACE_CACHE"
_MEM_LIMIT_ENV = "REPRO_TRACE_CACHE_MEM"
_DISK_LIMIT_ENV = "REPRO_TRACE_CACHE_ENTRIES"

_DEFAULT_MEM_ENTRIES = 64
_DEFAULT_DISK_ENTRIES = 512

_STAT_KEYS = ("mem_hits", "disk_hits", "misses", "disk_corrupt")

#: Disk-entry envelope: magic + sha256(payload)[:16] + packed payload.
#: ``unpack`` alone cannot detect a flipped bit inside column bytes
#: (the codec has magic and length checks but no content digest), so
#: the disk tier wraps entries in its own checksum — any single-byte
#: damage fails verification and is quarantined as a miss.
_ENVELOPE_MAGIC = b"TCK1"
_ENVELOPE_DIGEST_BYTES = 16


def _seal(payload: bytes) -> bytes:
    digest = hashlib.sha256(payload).digest()[:_ENVELOPE_DIGEST_BYTES]
    return _ENVELOPE_MAGIC + digest + payload


def _unseal(data: bytes) -> bytes:
    """Verified payload bytes; raises ValueError on any damage."""
    if not data.startswith(_ENVELOPE_MAGIC):
        raise ValueError("trace-cache entry missing envelope magic")
    start = len(_ENVELOPE_MAGIC) + _ENVELOPE_DIGEST_BYTES
    stored = data[len(_ENVELOPE_MAGIC):start]
    payload = data[start:]
    actual = hashlib.sha256(payload).digest()[:_ENVELOPE_DIGEST_BYTES]
    if stored != actual:
        raise ValueError("trace-cache entry failed its checksum")
    return payload

_lock = threading.Lock()
_mem: "OrderedDict[Tuple[str, float], ColumnarTrace]" = OrderedDict()
_stats: Dict[str, int] = {key: 0 for key in _STAT_KEYS}


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value >= 0 else default


def disk_enabled() -> bool:
    """False when ``REPRO_TRACE_CACHE=0`` turns the disk tier off."""
    return os.environ.get(_DISK_ENV, "1").strip() not in ("0", "off", "no")


def trace_dir() -> Path:
    """Disk-tier directory (inherits ``REPRO_CACHE_DIR`` isolation)."""
    from ..tools.cache import cache_dir

    return cache_dir() / "traces"


def fingerprint() -> str:
    """Hash of every functional-semantics module's source."""
    from ..tools.cache import TRACE_PACKAGES, source_fingerprint

    return source_fingerprint(TRACE_PACKAGES)


def trace_key(workload: str, scale: float) -> str:
    """Disk-tier key: (workload, input scale, semantics fingerprint)."""
    digest = hashlib.sha256()
    digest.update(fingerprint().encode())
    digest.update(workload.encode())
    digest.update(f"{scale:.6f}".encode())
    return digest.hexdigest()[:24]


def fault_key(workload: str, scale: float) -> str:
    """The key the chaos disk seam decides on when writing an entry.

    It names what the entry is, without the fingerprint, so a seeded
    fault schedule survives source edits.
    """
    return f"trace-cache:{workload}:{scale:.6f}"


def entry_path(workload: str, scale: float) -> Path:
    return trace_dir() / f"{trace_key(workload, scale)}.ctrc"


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
# tiers


def _mem_get(key: Tuple[str, float]) -> Optional[ColumnarTrace]:
    with _lock:
        trace = _mem.get(key)
        if trace is not None:
            _mem.move_to_end(key)
        return trace


def _mem_put(key: Tuple[str, float], trace: ColumnarTrace) -> None:
    limit = _env_int(_MEM_LIMIT_ENV, _DEFAULT_MEM_ENTRIES)
    with _lock:
        _mem[key] = trace
        _mem.move_to_end(key)
        while len(_mem) > max(1, limit):
            _mem.popitem(last=False)


def _disk_get(workload: str, scale: float) -> Optional[ColumnarTrace]:
    if not disk_enabled():
        return None
    path = entry_path(workload, scale)
    try:
        data = path.read_bytes()
    except OSError:
        return None
    try:
        trace = unpack(_unseal(data))
    except Exception:  # noqa: BLE001 - any damage is a miss, never a crash
        # Corrupt/truncated entry (bad magic, garbled header, codec or
        # unpickling error — ``unpack`` wraps known damage in
        # ExecutionError, but *nothing* a rotten byte stream can raise
        # may propagate to the runner): quarantine the entry — delete
        # it, count it — and report a miss so the caller re-executes
        # and repopulates the slot.
        _bump("disk_corrupt")
        try:
            os.remove(path)
        except OSError:
            pass
        return None
    try:
        os.utime(path)  # LRU touch for the entry-count prune
    except OSError:
        pass
    return trace


def _disk_put(workload: str, scale: float, trace: ColumnarTrace) -> None:
    if not disk_enabled():
        return
    from ..chaos import injector as chaos
    from ..tools.cache import atomic_write

    try:
        atomic_write(entry_path(workload, scale),
                     chaos.mangle_write(fault_key(workload, scale),
                                        _seal(trace.pack())))
    except OSError:
        return  # the disk tier is an optimization, never a failure
    prune(max_entries=_env_int(_DISK_LIMIT_ENV, _DEFAULT_DISK_ENTRIES))


def prune(max_entries: Optional[int] = None) -> int:
    """Evict least-recently-used disk entries beyond *max_entries*."""
    if max_entries is None:
        max_entries = _env_int(_DISK_LIMIT_ENV, _DEFAULT_DISK_ENTRIES)
    directory = trace_dir()
    if not directory.is_dir():
        return 0
    entries = []
    for path in directory.glob("*.ctrc"):
        try:
            entries.append((path.stat().st_mtime, path))
        except OSError:
            continue
    entries.sort()  # oldest mtime first
    evicted = 0
    while len(entries) - evicted > max(1, max_entries):
        _, path = entries[evicted]
        try:
            os.remove(path)
        except OSError:
            pass
        evicted += 1
    return evicted


# ----------------------------------------------------------------------
# the memoized lookup


def get(workload: str, scale: float,
        builder: Callable[[], ColumnarTrace]) -> ColumnarTrace:
    """Memoized functional trace for ``(workload, scale)``.

    Lookup order: in-memory LRU, then the shared disk tier, then
    *builder* (functional execution), publishing the result to both
    tiers.  Counters record which tier served each call.
    """
    key = (workload, scale)
    trace = _mem_get(key)
    if trace is not None:
        _bump("mem_hits")
        return trace
    trace = _disk_get(workload, scale)
    if trace is not None:
        _bump("disk_hits")
        _mem_put(key, trace)
        return trace
    trace = builder()
    _bump("misses")
    _disk_put(workload, scale, trace)
    _mem_put(key, trace)
    return trace


def clear_memory() -> None:
    """Drop the in-memory tier and zero the counters (tests)."""
    with _lock:
        _mem.clear()
        for key in _STAT_KEYS:
            _stats[key] = 0
