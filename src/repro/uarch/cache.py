"""Set-associative caches, MSHR files, and the memory hierarchy.

The hierarchy matches Table IV's common configuration: split 32 KiB 8-way
L1 I/D caches with 64 B blocks over a shared 512 KiB 8-way L2, no LLC,
and a fixed-latency DRAM model standing in for FASED.

Two access styles are provided because the two cores differ:

- Rocket's caches are *blocking*: :meth:`Cache.access` returns the cycle
  at which the data is available and the core stalls until then.
- BOOM's D-cache is *non-blocking*: misses allocate entries in an
  :class:`MSHRFile`; secondary misses to an in-flight block merge; the
  number of busy MSHRs is exported because the paper's new ``D$-blocked``
  event tests "at least one MSHR is currently handling a cache miss".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    ways: int
    block_bytes: int = 64
    hit_latency: int = 1

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.ways * self.block_bytes)
        if sets <= 0:
            raise ValueError(f"{self.name}: size too small for geometry")
        return sets


# Table IV common configuration.
L1I_32K = CacheConfig("L1I", 32 * 1024, 8, 64, hit_latency=1)
L1D_32K = CacheConfig("L1D", 32 * 1024, 8, 64, hit_latency=2)
L1D_16K = CacheConfig("L1D", 16 * 1024, 8, 64, hit_latency=2)
L2_512K = CacheConfig("L2", 512 * 1024, 8, 64, hit_latency=14)

#: DRAM round-trip latency in core cycles (3.2 GHz core over FASED@1GHz).
DRAM_LATENCY = 80

#: Minimum core-cycle spacing between DRAM block transfers (the bus
#: occupancy of one 64 B line at ~4 B/cycle effective bandwidth).  This
#: is what makes streaming kernels bandwidth-bound rather than purely
#: MSHR-bound.
DRAM_BLOCK_GAP = 16


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache."""

    accesses: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One level of set-associative cache with true-LRU replacement."""

    def __init__(self, config: CacheConfig,
                 next_level: Optional["Cache"] = None,
                 next_latency: int = DRAM_LATENCY,
                 bus_gap: int = 0) -> None:
        self.config = config
        self.next_level = next_level
        #: latency charged when this level misses and there is no
        #: modelled next level (i.e. DRAM).
        self.next_latency = next_latency
        #: Minimum cycle spacing between misses served below this level
        #: (models DRAM bandwidth when set on the last level).
        self.bus_gap = bus_gap
        self._bus_free = 0
        self.stats = CacheStats()
        #: Optional per-requestor breakdown of :attr:`stats`, populated
        #: lazily and only for accesses that pass ``requestor=``.  The
        #: common single-agent path never touches it.
        self.requestor_stats: Dict[Hashable, CacheStats] = {}
        num_sets = config.num_sets
        self._set_shift = config.block_bytes.bit_length() - 1
        self._set_mask = num_sets - 1
        # Each set is an ordered list of block tags, MRU first.
        self._sets: List[List[int]] = [[] for _ in range(num_sets)]
        self._dirty: List[Dict[int, bool]] = [{} for _ in range(num_sets)]

    def _index(self, addr: int) -> Tuple[int, int]:
        block = addr >> self._set_shift
        return block & self._set_mask, block

    def lookup(self, addr: int) -> bool:
        """Probe without updating stats or LRU (used by tests/prefetch)."""
        set_index, tag = self._index(addr)
        return tag in self._sets[set_index]

    def per_requestor(self, requestor: Hashable) -> CacheStats:
        """Per-requestor slice of :attr:`stats` (created on first use)."""
        stats = self.requestor_stats.get(requestor)
        if stats is None:
            stats = self.requestor_stats[requestor] = CacheStats()
        return stats

    def access(self, addr: int, is_store: bool = False,
               cycle: Optional[int] = None,
               requestor: Optional[Hashable] = None) -> Tuple[bool, int]:
        """Access *addr*; return ``(hit_at_this_level, total_latency)``.

        Misses recursively access the next level (or DRAM) and install
        the block here, evicting LRU.  When *cycle* is supplied, misses
        below a bandwidth-limited level are spaced by ``bus_gap`` cycles
        (DRAM bandwidth); without it only latency is modelled.  When
        *requestor* is supplied the access is additionally attributed to
        that requestor's :class:`CacheStats` (writebacks count against
        the requestor whose miss triggered the eviction).
        """
        self.stats.accesses += 1
        rstats = None
        if requestor is not None:
            rstats = self.per_requestor(requestor)
            rstats.accesses += 1
        set_index, tag = self._index(addr)
        blocks = self._sets[set_index]
        if tag in blocks:
            blocks.remove(tag)
            blocks.insert(0, tag)
            if is_store:
                self._dirty[set_index][tag] = True
            return True, self.config.hit_latency

        self.stats.misses += 1
        if rstats is not None:
            rstats.misses += 1
        if self.next_level is not None:
            below_cycle = None if cycle is None \
                else cycle + self.config.hit_latency
            _, below = self.next_level.access(addr, is_store=False,
                                              cycle=below_cycle)
        else:
            below = self.next_latency
        total = self.config.hit_latency + below
        if self.bus_gap and self.next_level is None:
            if cycle is not None:
                arrival = max(cycle + total, self._bus_free + self.bus_gap)
                self._bus_free = arrival
                total = arrival - cycle
            else:
                # Blocking callers serialize anyway; advance the bus so
                # concurrent agents (e.g. the I-cache) still contend.
                self._bus_free += self.bus_gap
        self._install(set_index, tag, is_store, requestor=requestor)
        return False, total

    def _install(self, set_index: int, tag: int, is_store: bool,
                 requestor: Optional[Hashable] = None) -> None:
        blocks = self._sets[set_index]
        if len(blocks) >= self.config.ways:
            victim = blocks.pop()
            if self._dirty[set_index].pop(victim, False):
                self.stats.writebacks += 1
                if requestor is not None:
                    self.per_requestor(requestor).writebacks += 1
        blocks.insert(0, tag)
        if is_store:
            self._dirty[set_index][tag] = True

    def flush(self) -> None:
        """Invalidate all blocks (used by fence.i for the I-cache)."""
        for blocks in self._sets:
            blocks.clear()
        for dirty in self._dirty:
            dirty.clear()

    def block_address(self, addr: int) -> int:
        """Return the block-aligned address containing *addr*."""
        return (addr >> self._set_shift) << self._set_shift


class MSHR:
    """One miss-status holding register."""

    __slots__ = ("block", "ready_cycle")

    def __init__(self, block: int, ready_cycle: int) -> None:
        self.block = block
        self.ready_cycle = ready_cycle


class MSHRFile:
    """Miss-status holding registers for a non-blocking cache.

    Tracks in-flight refills so the core model can (a) merge secondary
    misses, (b) back-pressure when full, and (c) expose "refill in
    progress", which the paper's I$-blocked and D$-blocked heuristics
    test.
    """

    def __init__(self, num_entries: int) -> None:
        self.num_entries = num_entries
        self._entries: Dict[int, MSHR] = {}
        # Largest ready_cycle among current entries (0 when empty).  If
        # the watermark entry is ever reapable, every entry is (all
        # readies <= max <= cycle), so the file empties and the
        # watermark resets — the invariant survives without rescans.
        self._max_ready = 0
        # Smallest ready_cycle among current entries (huge when empty):
        # lets _reap bail out without scanning when nothing is due.
        self._min_ready = 1 << 62
        self.allocations = 0
        self.merges = 0
        self.full_stalls = 0

    def busy(self, cycle: int) -> int:
        """Number of MSHRs still handling a miss at *cycle*."""
        return sum(1 for e in self._entries.values()
                   if e.ready_cycle > cycle)

    def refill_in_flight(self, cycle: int) -> bool:
        """True when at least one refill is outstanding at *cycle*."""
        return self._max_ready > cycle

    def next_ready(self, cycle: int) -> int:
        """Earliest refill completion after *cycle* (huge when none).

        The file's state can next change for its user at that cycle: a
        refill ends, ``busy`` drops and ``is_full`` may turn false.
        """
        if self._max_ready <= cycle:
            return 1 << 62
        return min((e.ready_cycle for e in self._entries.values()
                    if e.ready_cycle > cycle), default=1 << 62)

    def is_full(self, cycle: int) -> bool:
        if len(self._entries) < self.num_entries:
            return False
        self._reap(cycle)
        return len(self._entries) >= self.num_entries

    def lookup(self, block: int) -> Optional[MSHR]:
        return self._entries.get(block)

    def allocate(self, block: int, ready_cycle: int,
                 cycle: int) -> Optional[MSHR]:
        """Allocate (or merge into) an MSHR for *block*.

        Returns the MSHR, or None when the file is full (the caller must
        retry later — a structural stall).
        """
        existing = self._entries.get(block)
        if existing is not None and existing.ready_cycle > cycle:
            self.merges += 1
            return existing
        self._reap(cycle)
        if len(self._entries) >= self.num_entries:
            self.full_stalls += 1
            return None
        entry = MSHR(block, ready_cycle)
        self._entries[block] = entry
        if ready_cycle > self._max_ready:
            self._max_ready = ready_cycle
        if ready_cycle < self._min_ready:
            self._min_ready = ready_cycle
        self.allocations += 1
        return entry

    def _reap(self, cycle: int) -> None:
        if self._min_ready > cycle:
            return
        done = [b for b, e in self._entries.items() if e.ready_cycle <= cycle]
        for block in done:
            del self._entries[block]
        if not self._entries:
            self._max_ready = 0
            self._min_ready = 1 << 62
        else:
            self._min_ready = min(e.ready_cycle
                                  for e in self._entries.values())


class NonBlockingCache:
    """L1 cache front for BOOM: hits are pipelined, misses go via MSHRs."""

    def __init__(self, config: CacheConfig, mshrs: int,
                 next_level: Optional[Cache] = None,
                 next_latency: int = DRAM_LATENCY) -> None:
        self.cache = Cache(config, next_level=next_level,
                           next_latency=next_latency)
        self.mshrs = MSHRFile(mshrs)

    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    def access(self, addr: int, cycle: int,
               is_store: bool = False,
               requestor: Optional[Hashable] = None) -> Tuple[bool, int]:
        """Access at *cycle*; return ``(hit, data_ready_cycle)``."""
        hit, ready, _ = self.access_ex(addr, cycle, is_store=is_store,
                                       requestor=requestor)
        return hit, ready

    def access_ex(self, addr: int, cycle: int,
                  is_store: bool = False,
                  requestor: Optional[Hashable] = None,
                  ) -> Tuple[bool, int, bool]:
        """Access at *cycle*; return ``(hit, ready_cycle, primary_miss)``.

        A miss allocates/merges an MSHR; merged secondary misses report
        ``primary_miss=False`` (they must not re-count the miss event).
        If the MSHR file is full the access could not even start: the
        returned ready cycle is the earliest retry time.
        """
        block = self.cache.block_address(addr)
        in_flight = self.mshrs.lookup(block)
        if in_flight is not None and in_flight.ready_cycle > cycle:
            # Secondary miss: merge, data arrives with the refill.
            self.cache.stats.accesses += 1
            if requestor is not None:
                self.cache.per_requestor(requestor).accesses += 1
            self.mshrs.merges += 1
            return False, in_flight.ready_cycle, False
        hit, latency = self.cache.access(addr, is_store=is_store,
                                         cycle=cycle, requestor=requestor)
        if hit:
            return True, cycle + latency, False
        ready = cycle + latency
        entry = self.mshrs.allocate(block, ready, cycle)
        if entry is None:
            # Structural stall: retry when the oldest MSHR frees.
            earliest = min(e.ready_cycle
                           for e in self.mshrs._entries.values())
            return False, max(ready, earliest + 1), True
        return False, entry.ready_cycle, True


@dataclass
class MemorySystem:
    """The shared cache hierarchy handed to a core model."""

    l1i: Cache
    l1d_config: CacheConfig
    l2: Cache
    dram_latency: int = DRAM_LATENCY

    @staticmethod
    def build(l1d_config: CacheConfig = L1D_32K,
              l1i_config: CacheConfig = L1I_32K,
              l2_config: CacheConfig = L2_512K,
              dram_latency: int = DRAM_LATENCY,
              dram_block_gap: int = DRAM_BLOCK_GAP) -> "MemorySystem":
        """Construct the Table IV hierarchy (parameterizable for CS1)."""
        l2 = Cache(l2_config, next_level=None, next_latency=dram_latency,
                   bus_gap=dram_block_gap)
        l1i = Cache(l1i_config, next_level=l2)
        return MemorySystem(l1i=l1i, l1d_config=l1d_config, l2=l2,
                            dram_latency=dram_latency)

    def blocking_l1d(self) -> Cache:
        """A blocking L1D for Rocket."""
        return Cache(self.l1d_config, next_level=self.l2)

    def nonblocking_l1d(self, mshrs: int) -> NonBlockingCache:
        """A non-blocking L1D with *mshrs* MSHRs for BOOM."""
        return NonBlockingCache(self.l1d_config, mshrs, next_level=self.l2)
