"""Crash-safe sweep checkpoints: a killed sweep resumes, not restarts.

A long (workload × config) sweep that dies at pair 37 of 100 —
SIGKILL, OOM, power loss — used to recompute everything.  A
:class:`SweepCheckpoint` records each completed pair as it finishes, in
a single atomically-replaced, checksummed file (the PR 1 cache
format: JSON document with an embedded ``__sha256__`` over the
payload), so the *worst case* loss is the one pair in flight when the
process died.

Safety properties:

- **Atomic**: every update writes a per-process tmp file and
  ``os.replace``\\ s it over the live one; a kill mid-write leaves the
  previous complete checkpoint intact.
- **Checksummed**: a torn, truncated, or bit-flipped checkpoint fails
  its digest and is ignored wholesale (resume falls back to a full
  run) rather than resuming from lies.
- **Signature-guarded**: the checkpoint embeds a signature of the grid
  it belongs to (workloads, configs, scale, model fingerprint); a
  checkpoint from a different grid or an edited simulator is ignored.
- **Exact**: payloads are
  :func:`repro.tools.cache.serialize_result`-encoded
  :class:`~repro.cores.base.CoreResult` values, whose JSON round-trip
  is bit-exact — a resumed sweep's merged results are identical to an
  uninterrupted run's.

Checkpoints live under ``<cache dir>/checkpoints/<tag>.ckpt`` — a
non-``.json`` suffix, like the service's pending-jobs file, so the
result cache's ``*.json`` LRU prune can never evict sweep progress.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

from . import cache

_CHECKSUM_KEY = "__sha256__"
_VERSION = 1


def checkpoint_dir() -> Path:
    """Checkpoint directory (inherits ``REPRO_CACHE_DIR`` isolation)."""
    return cache.cache_dir() / "checkpoints"


def grid_signature(
    workloads: Iterable[str], config_names: Iterable[str], scale: float, extra: str = ""
) -> str:
    """Identity of one sweep grid; mismatched checkpoints are ignored.

    Folds in the model fingerprint, so editing the simulator
    invalidates stale progress exactly like it invalidates the cache.
    """
    digest = hashlib.sha256()
    digest.update(cache.model_fingerprint().encode())
    digest.update(json.dumps(sorted(workloads)).encode())
    digest.update(json.dumps(sorted(config_names)).encode())
    digest.update(f"{scale:.6f}".encode())
    digest.update(extra.encode())
    return digest.hexdigest()[:24]


def point_key(workload: str, config_name: str) -> str:
    """Canonical checkpoint key for one (workload, config) pair.

    Every sweep flavour (suite, batched grid) keys its checkpoint
    entries through this one helper, so the key format can never drift
    between them.
    """
    return f"{workload}:{config_name}"


def _sanitize_tag(tag: str) -> str:
    return "".join(c if (c.isalnum() or c in "-_.") else "-" for c in tag)


class SweepCheckpoint:
    """One sweep's completed-pair record, persisted after every pair."""

    def __init__(self, tag: str, signature: str) -> None:
        if not tag:
            raise ValueError("checkpoint tag must be non-empty")
        self.tag = _sanitize_tag(tag)
        self.signature = signature
        self._entries: Dict[str, Any] = {}
        self._loaded = False

    @property
    def path(self) -> Path:
        return checkpoint_dir() / f"{self.tag}.ckpt"

    # ------------------------------------------------------------------

    def load(self) -> Dict[str, Any]:
        """Read completed entries; {} on absent/corrupt/mismatched file."""
        self._loaded = True
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            self._entries = {}
            return {}
        if not isinstance(document, dict):
            self._entries = {}
            return {}
        stored_sum = document.pop(_CHECKSUM_KEY, None)
        actual = hashlib.sha256(
            json.dumps(document, sort_keys=True).encode("utf-8")
        ).hexdigest()
        if (
            stored_sum != actual
            or document.get("version") != _VERSION
            or document.get("signature") != self.signature
        ):
            # Torn write, bit rot, or a checkpoint for a different
            # grid/model: resuming from it would be wrong, start fresh.
            self._entries = {}
            return {}
        entries = document.get("entries")
        self._entries = dict(entries) if isinstance(entries, dict) else {}
        return dict(self._entries)

    def completed_keys(self) -> Iterable[str]:
        if not self._loaded:
            self.load()
        return set(self._entries)

    def get(self, key: str) -> Optional[Any]:
        if not self._loaded:
            self.load()
        return self._entries.get(key)

    # ------------------------------------------------------------------

    def record(self, key: str, payload: Any) -> None:
        """Add one completed pair and atomically persist the file."""
        if not self._loaded:
            self.load()
        self._entries[key] = payload
        self._flush()

    def record_many(self, items: Dict[str, Any]) -> None:
        if not items:
            return
        if not self._loaded:
            self.load()
        self._entries.update(items)
        self._flush()

    def _flush(self) -> None:
        document = {
            "version": _VERSION,
            "signature": self.signature,
            "entries": self._entries,
        }
        document[_CHECKSUM_KEY] = hashlib.sha256(
            json.dumps(
                {k: v for k, v in document.items() if k != _CHECKSUM_KEY},
                sort_keys=True,
            ).encode("utf-8")
        ).hexdigest()
        directory = checkpoint_dir()
        path = self.path
        tmp_path = path.with_suffix(f".{os.getpid()}.tmp")
        try:
            directory.mkdir(parents=True, exist_ok=True)
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            os.replace(tmp_path, path)
        except OSError:
            # Checkpointing is best-effort: a full disk degrades resume
            # granularity, it must never fail the sweep itself.
            pass
        finally:
            if tmp_path.exists():
                try:
                    os.remove(tmp_path)
                except OSError:
                    pass

    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Remove the checkpoint (sweep finished, or fresh start)."""
        self._entries = {}
        self._loaded = True
        try:
            os.remove(self.path)
        except OSError:
            pass
