"""Shared uncore: one L2 array + DRAM bus shared by N core requestors.

The single-core memory system gives every core a private
:class:`~repro.uarch.cache.MemorySystem` whose L2 owns the DRAM bus.
Multicore scenarios instead build ONE :class:`SharedUncore` and hand
each core an :class:`L2View` — a duck-typed stand-in for the private L2
that routes accesses into the shared array tagged with the core's
requestor index.

Design constraints (all load-bearing for the solo-identity oracle):

- **Same arithmetic as solo.**  The shared array is a plain
  :class:`~repro.uarch.cache.Cache` with ``bus_gap=0``; the DRAM bus is
  modelled *here* with exactly the cursor arithmetic the solo L2 uses
  (including the ``cycle=None`` path BOOM's next-line I$ prefetch
  exercises).  With one active requestor the shared path is therefore
  cycle-identical to :meth:`MemorySystem.build`'s private L2.
- **Tag coloring.**  Requestor *r*'s address is offset by
  ``r << COLOR_SHIFT`` before touching the array, so different cores
  never share blocks (no coherence model) while still competing for
  the same sets and ways.  ``COLOR_SHIFT`` sits far above the set-index
  bits, so set mapping is unchanged and a single requestor sees
  *exactly* its solo behavior (a constant tag offset).
- **Shadow tags.**  Every requestor also probes a private shadow array
  (same geometry, own stream only) on *every* access, keeping the
  shadow's LRU state exactly what a solo run would hold.  A shared-mode
  miss that the shadow *hits* is neighbor-induced; a miss the shadow
  also misses would have happened solo.  LRU stack inclusion guarantees
  a shared-mode hit is always a shadow hit, so the split is total.
- **Accounting-only MSHRs.**  Per-requestor L2 MSHR files record
  allocations/merges/occupancy for the metrics surface without feeding
  back into timing (which would break solo identity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..uarch.cache import (
    DRAM_BLOCK_GAP,
    DRAM_LATENCY,
    L2_512K,
    Cache,
    CacheConfig,
    CacheStats,
    MSHRFile,
)

#: Bit position of the requestor color in shared-array addresses.  Far
#: above any set-index bit of a realistic L2 geometry (a 512 KiB 8-way
#: L2 indexes with bits 6..15), so coloring shifts tags, never sets.
COLOR_SHIFT = 48

#: Accounting-only L2 MSHRs tracked per requestor (BOOM's largest L1D
#: MSHR file in Table IV is 8; the L2 sees at most that many in flight).
L2_MSHRS_PER_REQUESTOR = 8


@dataclass
class RequestorMetrics:
    """Uncore-side occupancy/bandwidth accounting for one requestor."""

    #: Shared-array accesses / misses seen from this requestor (equal to
    #: the array's per-requestor CacheStats; duplicated here so the
    #: metrics object is self-contained for payloads).
    accesses: int = 0
    misses: int = 0
    #: Miss split decided by the shadow tag array.
    self_misses: int = 0
    neighbor_induced_misses: int = 0
    #: DRAM-bus wait cycles, attributed by who last held the bus.
    bus_wait_self: int = 0
    bus_wait_neighbor: int = 0
    #: Bus occupancy: cycles of DRAM bandwidth this requestor consumed.
    bus_busy_cycles: int = 0
    #: Accounting-only L2 MSHR telemetry.
    mshr_allocations: int = 0
    mshr_merges: int = 0
    mshr_peak_busy: int = 0

    def to_payload(self) -> Dict[str, int]:
        return {
            "accesses": self.accesses,
            "misses": self.misses,
            "self_misses": self.self_misses,
            "neighbor_induced_misses": self.neighbor_induced_misses,
            "bus_wait_self": self.bus_wait_self,
            "bus_wait_neighbor": self.bus_wait_neighbor,
            "bus_busy_cycles": self.bus_busy_cycles,
            "mshr_allocations": self.mshr_allocations,
            "mshr_merges": self.mshr_merges,
            "mshr_peak_busy": self.mshr_peak_busy,
        }


class SharedUncore:
    """Shared L2 array + DRAM bus arbitrated between *n* requestors.

    ``shared_bus=False`` gives every requestor a private DRAM-bus
    cursor — the solo bandwidth model — which disables cross-core
    bandwidth contention while keeping capacity/conflict contention in
    the shared array.  The solo-equivalence oracle runs with one active
    requestor, where both settings are provably identical.
    """

    def __init__(self, n_requestors: int,
                 l2_config: CacheConfig = L2_512K,
                 dram_latency: int = DRAM_LATENCY,
                 bus_gap: int = DRAM_BLOCK_GAP,
                 shared_bus: bool = True,
                 mshrs_per_requestor: int = L2_MSHRS_PER_REQUESTOR) -> None:
        if n_requestors < 1:
            raise ValueError("uncore needs at least one requestor")
        self.n_requestors = n_requestors
        self.dram_latency = dram_latency
        self.bus_gap = bus_gap
        self.shared_bus = shared_bus
        # The shared array: bus handled here, not inside the Cache.
        self.array = Cache(l2_config, next_level=None,
                           next_latency=dram_latency, bus_gap=0)
        # Private solo-replay shadows (no next level, no bus).
        self.shadows: List[Cache] = [
            Cache(l2_config, next_level=None, next_latency=dram_latency,
                  bus_gap=0)
            for _ in range(n_requestors)
        ]
        self.mshr_files: List[MSHRFile] = [
            MSHRFile(mshrs_per_requestor) for _ in range(n_requestors)
        ]
        self.metrics: List[RequestorMetrics] = [
            RequestorMetrics() for _ in range(n_requestors)
        ]
        self._bus_free = 0
        self._bus_free_private = [0] * n_requestors
        self._last_bus_user: Optional[int] = None

    # ------------------------------------------------------------------

    def view(self, requestor: int) -> "L2View":
        """The per-core L2 stand-in for *requestor*."""
        return L2View(self, requestor)

    def color(self, requestor: int, addr: int) -> int:
        return addr + (requestor << COLOR_SHIFT)

    def requestor_stats(self, requestor: int) -> CacheStats:
        """This requestor's slice of the shared array's stats."""
        return self.array.per_requestor(requestor)

    def access(self, requestor: int, addr: int, is_store: bool = False,
               cycle: Optional[int] = None) -> Tuple[bool, int]:
        """One L2 access from *requestor*; mirrors ``Cache.access``."""
        met = self.metrics[requestor]
        met.accesses += 1
        # Shadow replay first, with the *uncolored* address: the shadow
        # must see the exact solo access stream (hits included) so its
        # LRU state tracks what a private L2 would hold.
        shadow_hit, _ = self.shadows[requestor].access(
            addr, is_store=is_store, cycle=None)
        hit, latency = self.array.access(
            self.color(requestor, addr), is_store=is_store, cycle=cycle,
            requestor=requestor)
        if hit:
            return True, latency
        met.misses += 1
        if shadow_hit:
            met.neighbor_induced_misses += 1
        else:
            met.self_misses += 1
        total = self._arbitrate_bus(requestor, met, cycle, latency)
        self._account_mshr(requestor, met, addr, cycle, total)
        return False, total

    def _arbitrate_bus(self, requestor: int, met: RequestorMetrics,
                       cycle: Optional[int], latency: int) -> int:
        """DRAM-bus spacing — the exact solo cursor arithmetic, but on a
        shared (or per-requestor) cursor with wait attribution."""
        total = latency
        if not self.bus_gap:
            return total
        if cycle is not None:
            free = (self._bus_free if self.shared_bus
                    else self._bus_free_private[requestor])
            arrival = max(cycle + total, free + self.bus_gap)
            wait = arrival - (cycle + total)
            if wait > 0:
                if (self.shared_bus
                        and self._last_bus_user is not None
                        and self._last_bus_user != requestor):
                    met.bus_wait_neighbor += wait
                else:
                    met.bus_wait_self += wait
            if self.shared_bus:
                self._bus_free = arrival
            else:
                self._bus_free_private[requestor] = arrival
            total = arrival - cycle
        else:
            # Blocking callers serialize anyway; advance the bus so
            # concurrent agents still contend (solo L2 does the same).
            if self.shared_bus:
                self._bus_free += self.bus_gap
            else:
                self._bus_free_private[requestor] += self.bus_gap
        if self.shared_bus:
            self._last_bus_user = requestor
        met.bus_busy_cycles += self.bus_gap
        return total

    def _account_mshr(self, requestor: int, met: RequestorMetrics,
                      addr: int, cycle: Optional[int], total: int) -> None:
        """Accounting-only MSHR occupancy (never affects timing)."""
        if cycle is None:
            return
        mshrs = self.mshr_files[requestor]
        block = self.array.block_address(addr)
        mshrs.allocate(block, cycle + total, cycle)
        met.mshr_allocations = mshrs.allocations
        met.mshr_merges = mshrs.merges
        busy = mshrs.busy(cycle)
        if busy > met.mshr_peak_busy:
            met.mshr_peak_busy = busy

    def bandwidth_share(self, requestor: int) -> float:
        """Fraction of consumed DRAM bandwidth used by *requestor*."""
        total = sum(m.bus_busy_cycles for m in self.metrics)
        if not total:
            return 0.0
        return self.metrics[requestor].bus_busy_cycles / total


class L2View:
    """Duck-typed private-L2 stand-in routing into a :class:`SharedUncore`.

    Implements the slice of the :class:`~repro.uarch.cache.Cache`
    interface the L1s and core models actually use (``access``,
    ``config``, ``stats``), so a :class:`~repro.uarch.cache.MemorySystem`
    can carry it as its ``l2`` and the cores need no changes at all.
    """

    def __init__(self, uncore: SharedUncore, requestor: int) -> None:
        self.uncore = uncore
        self.requestor = requestor
        self.config = uncore.array.config
        self.next_level = None

    @property
    def stats(self) -> CacheStats:
        """This requestor's slice — what lands in ``CoreResult.l2_stats``."""
        return self.uncore.requestor_stats(self.requestor)

    def access(self, addr: int, is_store: bool = False,
               cycle: Optional[int] = None) -> Tuple[bool, int]:
        return self.uncore.access(self.requestor, addr, is_store=is_store,
                                  cycle=cycle)
