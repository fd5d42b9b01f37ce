"""Shard identity: one server process as a member of a gateway cluster.

:class:`ShardInfo` is the identity a server carries when it runs as a
cluster member (``repro-tma serve --shard-id``), surfaced through
``/healthz`` and used to namespace its drain-persistence file.  Jobs
reach a cluster only through the gateway (:mod:`repro.service.gateway`),
which routes each submission to the shard that owns its canonical job
key on the consistent-hash ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from .hashring import ring_position


@dataclass(frozen=True)
class ShardInfo:
    """Identity of one shard server within a cluster."""

    id: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("shard id must be non-empty")
        safe = set("abcdefghijklmnopqrstuvwxyz"
                   "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")
        if not set(self.id) <= safe:
            # The id lands in the pending-file name
            # (``pending-jobs.<id>.state``), so it must stay
            # filesystem-safe.
            raise ValueError(
                f"shard id {self.id!r} must use only [A-Za-z0-9._-]")

    @property
    def ring_position(self) -> int:
        return ring_position(self.id)

    def to_payload(self) -> Dict[str, Any]:
        return {"id": self.id, "ring_position": self.ring_position}


def make_shard_service(shard_id: str, **kwargs: Any):
    """A :class:`~repro.service.app.TMAService` running as one shard."""
    from .app import TMAService

    return TMAService(shard=ShardInfo(shard_id), **kwargs)


__all__ = [
    "ShardInfo",
    "make_shard_service",
]
