"""TLB models (ITLB, DTLB, shared L2 TLB).

The paper counts ITLB/DTLB/L2-TLB miss events (Table I, Memory set) but
explicitly leaves TLB effects out of the TMA hierarchy ("we leave for
future work", §IV-A).  We model the structures anyway so the events exist
and carry realistic values: misses walk the (flat, always-resident) page
table with a fixed latency, going through the L2 TLB first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

PAGE_SHIFT = 12

#: Page-table-walk latency charged on an L2 TLB miss, in cycles.
PTW_LATENCY = 30
#: Latency of an L1 TLB miss that hits the L2 TLB.
L2_TLB_HIT_LATENCY = 4


@dataclass
class TlbStats:
    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Tlb:
    """Fully-associative TLB with LRU replacement.

    The entry set is an insertion-ordered dict (LRU first, MRU last):
    hit, refill, and eviction are all O(1), where the previous MRU-first
    list paid an O(entries) scan per translation — measurable, since the
    core models translate on every fetch packet and memory access.
    """

    def __init__(self, entries: int, name: str = "tlb") -> None:
        self.entries = entries
        self.name = name
        self.stats = TlbStats()
        self._order: Dict[int, None] = {}   # vpn -> None, LRU first

    def access(self, addr: int) -> bool:
        """Translate *addr*; return True on hit, inserting on miss."""
        vpn = addr >> PAGE_SHIFT
        order = self._order
        self.stats.accesses += 1
        if vpn in order:
            del order[vpn]       # re-insert as MRU
            order[vpn] = None
            return True
        self.stats.misses += 1
        if len(order) >= self.entries:
            del order[next(iter(order))]   # evict LRU
        order[vpn] = None
        return False

    def flush(self) -> None:
        self._order.clear()


class TlbHierarchy:
    """Split L1 TLBs over a shared L2 TLB, as in Rocket/BOOM."""

    def __init__(self, itlb_entries: int = 32, dtlb_entries: int = 32,
                 l2_entries: int = 512) -> None:
        self.itlb = Tlb(itlb_entries, "itlb")
        self.dtlb = Tlb(dtlb_entries, "dtlb")
        self.l2 = Tlb(l2_entries, "l2tlb")
