"""The on-disk store: core-model results and functional traces.

Cycle-level simulation and functional execution are the expensive
steps of the pipeline, so both are kept on disk, in two namespaces of
one store:

- ``result``: one JSON document per run (a :class:`CoreResult` or a
  multicore scenario payload), keyed by ``<identity>-<fingerprint>``.
  The identity hashes only what the entry *is* (:func:`entry_identity`:
  workload, scale, config); the fingerprint hashes the source of every
  module that influences timing (:data:`MODEL_PACKAGES`), so editing
  the simulator invalidates stale results automatically.
- ``trace``: one packed functional trace per (workload, scale), written
  by :mod:`repro.workloads.trace_cache`; it does not depend on the core
  config, so a sweep executes each workload once.

Every entry is sealed the same way: magic + sha256 digest + payload
bytes.  :func:`read` verifies it, and deletes and reports (as
:class:`~repro.isa.errors.CacheIntegrityError`) any entry that is
unreadable, fails its digest or does not parse, so callers quarantine
poisoned entries (verify, delete, re-run) instead of serving them.
:func:`write` is the one write path: atomic, through the chaos disk
seam, which decides on the entry's namespace and identity
(:func:`fault_key`) so a seeded fault schedule survives source edits.

Configuration is environment-driven so service instances and CI runs
can isolate their stores:

- ``REPRO_CACHE_DIR`` relocates the store (:func:`cache_dir`);
- ``REPRO_CACHE_LIMIT_BYTES`` / ``REPRO_CACHE_LIMIT_ENTRIES`` bound both
  namespaces together: every write evicts least-recently-used entries
  (:func:`read` touches hits) until both limits hold.  Unset limits
  leave results unbounded; traces are always held to
  :data:`TRACE_ENTRIES` entries.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from stat import S_ISREG
from typing import (Any, Callable, Dict, List, Optional, Tuple, TypeVar,
                    Union)

from ..cores.base import BoomConfig, CoreResult, RocketConfig
from ..isa.errors import CacheIntegrityError
from ..uarch.branch import PredictorStats
from ..uarch.cache import CacheStats

_CACHE_ENV = "REPRO_CACHE_DIR"
_LIMIT_BYTES_ENV = "REPRO_CACHE_LIMIT_BYTES"
_LIMIT_ENTRIES_ENV = "REPRO_CACHE_LIMIT_ENTRIES"
_DEFAULT_CACHE = Path(__file__).resolve().parents[3] / ".cache" / "results"

_REPRO_ROOT = Path(__file__).resolve().parents[1]

_T = TypeVar("_T")

#: The ``repro`` subpackages each source fingerprint covers.  Every
#: ``.py`` file under them is hashed, so a module added later is
#: covered without a hand-kept list.
TRACE_PACKAGES = ("repro.isa", "repro.workloads")
MODEL_PACKAGES = TRACE_PACKAGES + ("repro.uarch", "repro.cores")
MULTICORE_PACKAGES = MODEL_PACKAGES + ("repro.multicore",)

_package_digests: Dict[str, bytes] = {}


def _package_digest(package: str) -> bytes:
    digest = _package_digests.get(package)
    if digest is None:
        hasher = hashlib.sha256()
        root = _REPRO_ROOT.joinpath(*package.split(".")[1:])
        for path in sorted(root.rglob("*.py")):
            hasher.update(path.relative_to(_REPRO_ROOT).as_posix().encode())
            hasher.update(path.read_bytes())
        digest = _package_digests[package] = hasher.digest()
    return digest


def source_fingerprint(packages: Tuple[str, ...]) -> str:
    """Hash of the path and source of every ``.py`` file in *packages*."""
    digest = hashlib.sha256()
    for package in packages:
        digest.update(_package_digest(package))
    return digest.hexdigest()[:16]


def model_fingerprint() -> str:
    """Hash of every timing-relevant module's source."""
    return source_fingerprint(MODEL_PACKAGES)


def cache_dir() -> Path:
    """The store's directory (``REPRO_CACHE_DIR`` overrides the default)."""
    return Path(os.environ.get(_CACHE_ENV, _DEFAULT_CACHE))


def _env_limit(name: str) -> Optional[int]:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value >= 0 else None


def cache_limit_bytes() -> Optional[int]:
    """Byte budget from ``REPRO_CACHE_LIMIT_BYTES`` (None = unlimited)."""
    return _env_limit(_LIMIT_BYTES_ENV)


def cache_limit_entries() -> Optional[int]:
    """Entry budget from ``REPRO_CACHE_LIMIT_ENTRIES`` (None = unlimited)."""
    return _env_limit(_LIMIT_ENTRIES_ENV)


def _config_key(config: Union[RocketConfig, BoomConfig]) -> str:
    payload = asdict(config)
    return json.dumps(payload, sort_keys=True, default=str)


def entry_identity(workload: str, scale: float,
                   config: Union[RocketConfig, BoomConfig]) -> str:
    """What a plain run's entry is: (workload, scale, config), no source."""
    digest = hashlib.sha256()
    digest.update(workload.encode())
    digest.update(f"{scale:.6f}".encode())
    digest.update(_config_key(config).encode())
    return digest.hexdigest()[:16]


def cache_key(workload: str, scale: float,
              config: Union[RocketConfig, BoomConfig]) -> str:
    return f"{entry_identity(workload, scale, config)}-{model_fingerprint()}"


def windowed_cache_key(workload: str, scale: float,
                       config: Union[RocketConfig, BoomConfig],
                       windows: int, warmup: int,
                       sampled: bool) -> str:
    """Cache key for a windowed/sampled run of (workload, scale, config).

    Folds the window plan into the plain run's identity so a stitched
    (or extrapolated) result can never collide with the plain full-run
    entry, another window count, or the other mode — exact and sampled
    results live in distinct slots by construction.
    """
    digest = hashlib.sha256()
    digest.update(entry_identity(workload, scale, config).encode())
    digest.update(
        f"windows={windows};warmup={warmup};sampled={int(sampled)}".encode())
    return f"{digest.hexdigest()[:16]}-{model_fingerprint()}"


def serialize_result(result: CoreResult) -> Dict[str, Any]:
    """JSON codec for :class:`CoreResult`: the payload of an entry."""
    return {
        "workload": result.workload,
        "config_name": result.config_name,
        "core": result.core,
        "cycles": result.cycles,
        "instret": result.instret,
        "events": result.events,
        "lane_events": result.lane_events,
        "commit_width": result.commit_width,
        "issue_width": result.issue_width,
        "l1i_stats": asdict(result.l1i_stats),
        "l1d_stats": asdict(result.l1d_stats),
        "l2_stats": asdict(result.l2_stats),
        "predictor_stats": asdict(result.predictor_stats),
        "extra": result.extra,
        "sampled": result.sampled,
        "windowed": result.windowed,
    }


def deserialize_result(payload: Dict[str, Any]) -> CoreResult:
    """Inverse of :func:`serialize_result` (exact round-trip)."""
    return CoreResult(
        workload=payload["workload"],
        config_name=payload["config_name"],
        core=payload["core"],
        cycles=payload["cycles"],
        instret=payload["instret"],
        events={k: int(v) for k, v in payload["events"].items()},
        lane_events={k: [int(x) for x in v]
                     for k, v in payload["lane_events"].items()},
        commit_width=payload["commit_width"],
        issue_width=payload["issue_width"],
        l1i_stats=CacheStats(**payload["l1i_stats"]),
        l1d_stats=CacheStats(**payload["l1d_stats"]),
        l2_stats=CacheStats(**payload["l2_stats"]),
        predictor_stats=PredictorStats(**payload["predictor_stats"]),
        extra=payload.get("extra", {}),
        # Absent in pre-windowing entries: default to a plain exact run.
        sampled=bool(payload.get("sampled", False)),
        windowed=payload.get("windowed"),
    )


# ----------------------------------------------------------------------
# Sealed entries


#: Entry envelope: magic + sha256(payload)[:16] + payload bytes.  Any
#: flipped, lost or added byte fails the digest, and a file without the
#: magic (a torn write, or a result entry from before the envelope) is
#: refused as unreadable.
_MAGIC = b"TCK1"
_DIGEST_BYTES = 16
_HEADER_BYTES = len(_MAGIC) + _DIGEST_BYTES

#: Namespace -> (subdirectory, file suffix).  Result entries keep the
#: ``.json`` name they had before the envelope, so entries written then
#: are still counted and evicted by the budget.
NAMESPACES = {"result": ("", ".json"), "trace": ("traces", ".ctrc")}

#: The trace namespace holds at most this many entries, budget or not.
TRACE_ENTRIES = 512


def entry_path(key: str, namespace: str = "result") -> Path:
    """On-disk location of the entry for *key* (existing or not)."""
    subdir, suffix = NAMESPACES[namespace]
    return cache_dir() / subdir / f"{key}{suffix}"


def _unseal(data: bytes, name: str) -> bytes:
    """The verified payload; raises CacheIntegrityError on any damage."""
    if len(data) < _HEADER_BYTES or not data.startswith(_MAGIC):
        raise CacheIntegrityError(
            f"cache entry {name} is not a sealed entry",
            invariant="cache-readable", observed=data[:len(_MAGIC)].hex())
    stored = data[len(_MAGIC):_HEADER_BYTES]
    payload = data[_HEADER_BYTES:]
    actual = hashlib.sha256(payload).digest()[:_DIGEST_BYTES]
    if actual != stored:
        raise CacheIntegrityError(
            f"cache entry {name} failed its checksum",
            invariant="cache-checksum",
            observed=actual.hex(), expected=stored.hex())
    return payload


def read(namespace: str, key: str, parse: Callable[[bytes], _T]
         ) -> Optional[_T]:
    """The parsed entry for *key*, or None when there is none.

    A present entry that cannot be read, fails its digest, or whose
    payload *parse* rejects is deleted, and the reason is raised as
    :class:`~repro.isa.errors.CacheIntegrityError` so the caller
    re-runs and can say why.  A hit is touched, which makes the
    budget's eviction least-recently-used.
    """
    path = entry_path(key, namespace)
    try:
        value = parse(_unseal(path.read_bytes(), path.name))
    except FileNotFoundError:
        return None
    except Exception as exc:  # noqa: BLE001 - damage is never a crash
        try:
            os.remove(path)
        except OSError:
            pass
        if isinstance(exc, CacheIntegrityError):
            raise
        raise CacheIntegrityError(
            f"cache entry {path.name} is damaged: {exc}",
            invariant=("cache-readable" if isinstance(exc, OSError)
                       else "cache-schema"),
            observed=str(exc)) from exc
    try:
        os.utime(path)
    except OSError:
        pass
    return value


def fault_key(namespace: str, identity: str) -> str:
    """The key the chaos disk seam decides on when writing an entry.

    *identity* names what the entry is without any source fingerprint
    (a result's :func:`entry_identity`, a trace's workload and scale),
    so a seeded fault schedule survives source edits.
    """
    return f"{namespace}-cache:{identity}"


def write(namespace: str, key: str, payload: bytes, identity: str) -> bool:
    """Seal and atomically write one entry; False when the write failed.

    A cache write is an optimization, never a correctness step: a full
    disk (ENOSPC), a permissions problem, or any other ``OSError``
    skips the write.  The sealed bytes pass the chaos disk seam (keyed
    by :func:`fault_key`), whose truncated and bit-flipped writes the
    digest catches on the next read.  Then the store is pruned: to the
    ``REPRO_CACHE_LIMIT_*`` budget when one is set (one scan of both
    namespaces), else a trace write caps traces at
    :data:`TRACE_ENTRIES` (one scan of that namespace) and a result
    write scans nothing.
    """
    from ..chaos import injector as chaos

    sealed = (_MAGIC + hashlib.sha256(payload).digest()[:_DIGEST_BYTES]
              + payload)
    try:
        atomic_write(entry_path(key, namespace),
                     chaos.mangle_write(fault_key(namespace, identity),
                                        sealed))
    except OSError:
        return False
    limit_bytes = cache_limit_bytes()
    limit_entries = cache_limit_entries()
    if (namespace == "trace" or limit_bytes is not None
            or limit_entries is not None):
        prune(max_bytes=limit_bytes, max_entries=limit_entries, keep=(key,))
    return True


def atomic_write(path: Path, data: bytes) -> None:
    """Replace *path* with *data* whole, or leave it as it was.

    The bytes go to a per-process tmp file beside *path* (concurrent
    writers never clobber each other's in-flight file), which
    ``os.replace`` then swaps in.  The tmp file never outlives the
    call; any ``OSError`` (ENOSPC, permissions) is re-raised for the
    caller to decide whether the write mattered.
    """
    tmp_path = path.with_suffix(f".{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp_path, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    finally:
        try:
            os.remove(tmp_path)
        except OSError:
            pass


# ----------------------------------------------------------------------
# The result namespace
#
# A CoreResult entry holds the JSON of :func:`serialize_result`; any
# other result (a multicore scenario payload) is wrapped under one key,
# so it can never be mistaken for a CoreResult.


_PAYLOAD_WRAPPER_KEY = "__payload__"


def _write_result(key: str, document: Dict[str, Any]) -> bool:
    # The identity drops the ``-<model fingerprint>`` suffix of keys from
    # cache_key/windowed_cache_key; a multicore scenario key stays whole.
    suffix = f"-{model_fingerprint()}"
    identity = key[: -len(suffix)] if key.endswith(suffix) else key
    return write("result", key, json.dumps(document).encode("utf-8"),
                 identity)


def store(key: str, result: CoreResult) -> bool:
    """Write the entry for *key*; returns False when the write failed."""
    return _write_result(key, serialize_result(result))


def store_payload(key: str, payload: Dict[str, Any]) -> bool:
    """Write an arbitrary JSON *payload* under *key* (best-effort).

    :func:`load_payload_or_quarantine` reads it back.
    """
    return _write_result(key, {_PAYLOAD_WRAPPER_KEY: payload})


def _result_of(data: bytes) -> CoreResult:
    return deserialize_result(json.loads(data))


def _payload_of(data: bytes) -> Dict[str, Any]:
    payload = json.loads(data).get(_PAYLOAD_WRAPPER_KEY)
    if not isinstance(payload, dict):
        raise CacheIntegrityError(
            "cache entry holds no payload document",
            invariant="cache-schema", observed=type(payload).__name__)
    return payload


def load(key: str) -> Optional[CoreResult]:
    """The result for *key*; a damaged entry is quarantined as a miss."""
    return load_or_quarantine(key)[0]


def load_or_quarantine(
    key: str,
) -> Tuple[Optional[CoreResult], Optional[CacheIntegrityError]]:
    """``(result, None)`` on a hit, ``(None, None)`` when absent.

    A damaged entry is deleted by :func:`read` and comes back as
    ``(None, error)``; the caller re-runs and can report why.
    """
    return _load_or_quarantine(key, _result_of)


def load_payload_or_quarantine(
    key: str,
) -> Tuple[Optional[Dict[str, Any]], Optional[CacheIntegrityError]]:
    """:func:`load_or_quarantine` for a :func:`store_payload` entry."""
    return _load_or_quarantine(key, _payload_of)


def _load_or_quarantine(key: str, parse
                        ) -> Tuple[Any, Optional[CacheIntegrityError]]:
    try:
        return read("result", key, parse), None
    except CacheIntegrityError as exc:
        return None, exc


# ----------------------------------------------------------------------
# Size accounting and eviction


@dataclass(frozen=True)
class CacheUsage:
    """Point-in-time size report of the on-disk store."""

    directory: str
    entries: int
    total_bytes: int
    limit_bytes: Optional[int]
    limit_entries: Optional[int]
    #: namespace -> (entries, bytes)
    namespaces: Dict[str, Tuple[int, int]]

    @property
    def over_limit(self) -> bool:
        if self.limit_bytes is not None and self.total_bytes > self.limit_bytes:
            return True
        return (self.limit_entries is not None
                and self.entries > self.limit_entries)

    def render(self) -> str:
        def fmt(limit: Optional[int]) -> str:
            return "unlimited" if limit is None else str(limit)

        lines = [f"cache {self.directory}",
                 f"  entries: {self.entries} (limit {fmt(self.limit_entries)})",
                 f"  bytes:   {self.total_bytes} (limit {fmt(self.limit_bytes)})"]
        for namespace, (entries, size) in self.namespaces.items():
            cap = f", cap {TRACE_ENTRIES}" if namespace == "trace" else ""
            lines.append(f"  {namespace + ':':<8} {entries} entries, "
                         f"{size} bytes{cap}")
        return "\n".join(lines)


def _scan(namespaces) -> List[Tuple[float, int, str, Path]]:
    """``(mtime, size, namespace, path)`` of every entry in *namespaces*."""
    found = []
    for namespace in namespaces:
        subdir, suffix = NAMESPACES[namespace]
        directory = cache_dir() / subdir
        if not directory.is_dir():
            continue
        for path in directory.glob(f"*{suffix}"):
            try:
                info = path.stat()
            except OSError:
                continue
            if S_ISREG(info.st_mode):
                found.append((info.st_mtime, info.st_size, namespace, path))
    return found


def usage() -> CacheUsage:
    """Entry count and byte total of both namespaces, plus the budget."""
    totals = {namespace: (0, 0) for namespace in NAMESPACES}
    for _, size, namespace, _ in _scan(NAMESPACES):
        entries, total = totals[namespace]
        totals[namespace] = (entries + 1, total + size)
    return CacheUsage(directory=str(cache_dir()),
                      entries=sum(n for n, _ in totals.values()),
                      total_bytes=sum(b for _, b in totals.values()),
                      limit_bytes=cache_limit_bytes(),
                      limit_entries=cache_limit_entries(),
                      namespaces=totals)


def prune(max_bytes: Optional[int] = None,
          max_entries: Optional[int] = None,
          keep: Optional[Any] = None) -> List[str]:
    """Evict least-recently-used entries until the store is in budget.

    ``max_bytes`` / ``max_entries`` bound both namespaces together;
    ``None`` means no bound on that axis, and with both ``None`` only
    the trace namespace is scanned.  The trace namespace is also held
    to :data:`TRACE_ENTRIES` entries.  Keys listed in ``keep`` are
    never evicted (:func:`write` protects the entry it just wrote).
    Returns the evicted keys, oldest first.
    """
    budget = max_bytes is not None or max_entries is not None
    survivors = sorted(_scan(NAMESPACES if budget else ("trace",)))
    total_bytes = sum(size for _, size, _, _ in survivors)
    total_entries = len(survivors)
    traces = sum(1 for _, _, namespace, _ in survivors
                 if namespace == "trace")
    protected = set(keep or ())
    evicted: List[str] = []
    for _, size, namespace, path in survivors:
        over_budget = ((max_bytes is not None and total_bytes > max_bytes)
                       or (max_entries is not None
                           and total_entries > max_entries))
        over_cap = traces > TRACE_ENTRIES
        if not over_budget and not over_cap:
            break
        if path.stem in protected:
            continue
        if not over_budget and namespace != "trace":
            continue
        try:
            os.remove(path)
        except OSError:
            continue
        evicted.append(path.stem)
        total_bytes -= size
        total_entries -= 1
        traces -= namespace == "trace"
    return evicted
