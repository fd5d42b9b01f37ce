"""Cycle-level timing model of the BOOM superscalar OoO core (Fig. 2b).

The model replays a committed-path dynamic trace through a parameterized
out-of-order pipeline: fetch (L1I + TAGE/BTB/RAS + fetch buffer), decode/
dispatch (W_C wide, into a ROB and split int/mem/FP issue queues), issue
(per-queue ports, wakeup on producer completion), a non-blocking L1D with
MSHRs, store-to-load forwarding with memory-ordering speculation (machine
clears), and W_C-wide in-order commit.

Wrong-path work is modelled with *phantom µops*: once a mispredicted
control-flow instruction is fetched, the frontend supplies phantoms until
the mispredict resolves in execute; the resolution flushes everything
younger and starts the ``Recovering`` window.  Issued phantoms are the
reason ``Uops-issued − Uops-retired`` measures Bad Speculation slots
exactly as the paper's event pair does (§IV-A).

All seven of Icicle's new BOOM events (Table I) are emitted here, along
with the pre-existing Basic/Microarchitectural/Memory events.

There is one cycle loop.  It reads the trace columns through a compiled
descriptor table, keeps µops in a slab of parallel arrays, and
accumulates event counters and lane histograms in place, jumping over
quiet stretches; the same loop records each cycle's signals on a
:class:`~repro.cores.base.SignalStream`, freezes the windows a fault
hook gives, and hands off at the multicore lockstep's bound (see
:meth:`BoomCore.run` and :meth:`BoomCore.steps`).
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Deque, Dict, List, Optional, Set, Tuple

from ...isa.columnar import ColumnarTrace
from ...uarch.branch import BoomBranchPredictor
from ...uarch.cache import MemorySystem, NonBlockingCache
from ...uarch.prefetch import StridePrefetcher
from ...uarch.tlb import L2_TLB_HIT_LATENCY, PTW_LATENCY, TlbHierarchy
from ..base import (BoomConfig, CoreFaultHook, CoreResult, CycleSteps,
                    SignalStream, check_cycle_budget, check_run_completed,
                    run_steps, stall_from)
from ..configs import LARGE_BOOM
from ..descriptors import INT_QUEUE, MEM_QUEUE, build_boom_table

_SAFETY_CYCLES_PER_INST = 600

#: Single-lane events the loop counts in local variables, in the order
#: a signal-stream note lists them.
_COUNTED_EVENTS = ("fence_retired", "br_mispredict", "cf_target_mispredict",
                   "flush", "icache_blocked", "itlb_miss", "icache_miss",
                   "dtlb_miss", "l2_tlb_miss", "dcache_miss", "recovering")


def _stream_layout(w_c: int, issue_width: int) -> List[Tuple[str, int]]:
    """Per noted counter, the event lanes it asserts when it moves; the
    note's tag, the commit width, asserts the retire lane prefix."""
    suffixes = [(1 << w_c) - (1 << lane) for lane in range(w_c)]
    return ([(name, 1) for name in _COUNTED_EVENTS]
            + [("uops_issued", 1 << lane) for lane in range(issue_width)]
            + [("fetch_bubbles", mask) for mask in suffixes]
            + [("dcache_blocked", mask) for mask in suffixes])


class BoomCore:
    """Trace-driven BOOM timing model."""

    #: Read by ``perfbench/spans.py:148`` in traced runs; signals are
    #: recorded on a :class:`~repro.cores.base.SignalStream` instead.
    observers = ()

    def __init__(self, config: BoomConfig = LARGE_BOOM,
                 memory: Optional[MemorySystem] = None) -> None:
        self.config = config
        self.memory = memory or MemorySystem.build(l1d_config=config.l1d)
        self.l1i = self.memory.l1i
        self.l1d: NonBlockingCache = self.memory.nonblocking_l1d(config.mshrs)
        self.tlbs = TlbHierarchy()
        self.predictor = BoomBranchPredictor(
            btb_entries=config.btb_entries,
            direction=config.branch_predictor)
        self.dprefetcher = (StridePrefetcher()
                            if config.dcache_prefetch else None)
        self.fault_hook: Optional[CoreFaultHook] = None
        self.machine_clears = 0
        #: PCs of loads that previously caused an ordering violation; the
        #: (modelled) store-set predictor makes them wait thereafter.
        self._trained_loads: Set[int] = set()

    # ------------------------------------------------------------------

    def run(self, trace: ColumnarTrace, max_cycles: Optional[int] = None,
            stream: Optional[SignalStream] = None) -> CoreResult:
        """Replay *trace* and return per-event totals; *max_cycles*,
        the fault hook and *stream* act exactly as on
        :meth:`repro.cores.rocket.RocketCore.run`."""
        self.reset_run_state()
        return run_steps(self._run_columnar(trace, max_cycles, stream))

    def steps(self, trace: ColumnarTrace,
              max_cycles: Optional[int] = None) -> CycleSteps:
        """The cycle loop of one run of *trace*, as a coroutine, as on
        :meth:`repro.cores.rocket.RocketCore.steps`."""
        self.reset_run_state()
        return self._run_columnar(trace, max_cycles, None)

    def reset_run_state(self) -> None:
        """Clear every field :meth:`run` treats as per-run scratch.

        A reused core must not leak the machine-clear count or the
        store-set training of its previous run.  Caches, TLBs and the
        predictor deliberately stay warm across runs on one instance,
        which is why :mod:`repro.cores.batch` builds a fresh core per
        grid point: no state crosses configs.
        """
        self.machine_clears = 0
        self._trained_loads.clear()

    # ------------------------------------------------------------------
    # the cycle loop: descriptor table + slab-allocated µop pool
    # ------------------------------------------------------------------

    def _run_columnar(self, trace: ColumnarTrace, max_cycles: Optional[int],
                      stream: Optional[SignalStream]) -> CycleSteps:
        """The pipeline model over trace columns and a µop slab.

        - static facts come from the :class:`~repro.cores.descriptors
          .BoomOpTable` compiled once per trace; dynamic facts from the
          flat trace columns;
        - µops live in a slab of parallel arrays with a free list; ROB,
          issue queues, fetch buffer, store queue, and pending-resolve
          list hold integer slot indices;
        - producer references are ``(slot << 32) | generation`` tokens:
          freeing a slot bumps its generation, so a stale token proves
          its µop already left the ROB — for an in-order-commit machine
          that is exactly the "producer complete" answer;
        - events accumulate into local counters and lane histograms
          (per-cycle dedup flags keep every single-lane event to one
          assertion per cycle; the contiguous commit/bubble/blocked lane
          patterns collapse to one histogram bump per cycle), and the
          totals and per-lane lists are rebuilt once after the run.

        A recorded cycle notes the same counters and its commit width.
        The top of each cycle tests one bound, as in the Rocket loop.
        """
        config = self.config
        w_c = config.decode_width
        issue_ports = (config.issue_int, config.issue_mem, config.issue_fp)
        issue_width = config.issue_width
        total = len(trace)

        table = trace.timing_table("boom", build_boom_table)
        d_pc = table.pc
        d_dest = table.dest
        d_srcs = table.srcs
        d_lat = table.latency
        d_memw = table.mem_width
        d_queue = table.queue
        d_serializes = table.serializes
        d_is_load = table.is_load
        d_is_store = table.is_store
        d_is_branch = table.is_branch
        d_is_fence = table.is_fence
        d_is_fence_i = table.is_fence_i
        d_is_jump = table.is_jump
        d_is_jump_reg = table.is_jump_reg
        d_is_call = table.is_call
        d_is_return = table.is_return
        sidx = trace.sidx
        col_mem = trace.mem_addr
        col_next = trace.next_pc
        col_taken = trace.taken

        # ---------------- µop slab -----------------------------------
        # Only per-µop *dynamic* state lives in the slab; everything
        # derivable from the static index (queue, latency, dest,
        # load/store-ness, memory width) is read through ``u_s`` from
        # the descriptor table, so allocating a µop is a handful of
        # list stores and reusing a freed slot recycles its (already
        # emptied) producer list in place.
        u_seq: List[int] = []
        u_dyn: List[int] = []          # dynamic index (-1 for phantoms)
        u_s: List[int] = []            # static index (-1 for phantoms)
        u_mem_addr: List[int] = []
        u_completed: List[Optional[int]] = []
        u_flushed: List[bool] = []
        u_issued: List[bool] = []
        u_mispred: List[bool] = []
        u_viol: List[Optional[int]] = []
        u_in_resolve: List[bool] = []  # parked in pending_resolves
        u_committed: List[bool] = []   # committed, free deferred to resolve
        # Current park bound (0 = not parked).  Lets a consumer blocked
        # on an *unissued but parked* producer park transitively at
        # bound+1: the producer cannot issue before its own bound, so
        # the consumer cannot become ready before the cycle after it —
        # whole dependency chains leave the scan with staggered bounds.
        u_park: List[int] = []
        u_prod: List[List[int]] = []   # producer tokens
        u_gen: List[int] = []          # generation, bumped on free
        free_slots: List[int] = []
        free_append = free_slots.append
        free_pop = free_slots.pop
        _GENMASK = 0xFFFFFFFF

        rob: Deque[int] = deque()
        rob_popleft = rob.popleft
        rob_append = rob.append
        rob_len = 0
        iqs: Tuple[List[int], List[int], List[int]] = ([], [], [])
        iq_capacity = (config.iq_int, config.iq_mem, config.iq_fp)
        # Parked issue-queue entries: a wakeup walk that blocks on an
        # *issued* producer knows that producer's exact completion
        # cycle, so the consumer leaves the scanned queue for a
        # min-heap of ``(wake_cycle, seq, slot)`` and is re-admitted in
        # age order when the bound passes.  Exact, not heuristic: a
        # live consumer's blocking producer can be neither committed
        # before its completion cycle nor flushed without the younger
        # consumer being flushed too (flush_younger purges the heaps
        # by seq).  Queue scans then touch only issue *candidates*.
        parked: Tuple[List[Tuple[int, int, int]], ...] = ([], [], [])
        fetch_buffer: Deque[int] = deque()
        fb_append = fetch_buffer.append
        fb_popleft = fetch_buffer.popleft
        fb_len = 0
        fb_capacity = config.fetch_buffer_size
        ldq_entries = config.ldq_entries
        stq_entries = config.stq_entries
        stq: List[int] = []
        stq_append = stq.append
        ldq_used = 0
        stq_used = 0

        reg_producers: Dict[int, List[int]] = {}
        reg_producers_get = reg_producers.get
        pending_resolves: List[int] = []
        pending_append = pending_resolves.append
        serialized_slot = -1
        serialized_gen = -1
        trained_loads = self._trained_loads

        fetch_idx = 0
        seq = 0
        retired = 0
        cycle = 0

        fetch_resume_at = 0
        l1i_refill_until = 0
        recovering = False
        recovering_from = 0
        wrong_path = False

        safety_limit = total * _SAFETY_CYCLES_PER_INST + 20_000
        end = safety_limit if max_cycles is None else \
            min(max_cycles, safety_limit)
        # ``horizon``, ``handoff`` and ``limit`` as in the Rocket loop.
        horizon = handoff = limit = 0

        # ---------------- hot-loop local bindings --------------------
        l1i = self.l1i
        l1i_access = l1i.access
        l1i_lookup = l1i.lookup
        l1i_stats = l1i.stats
        block_bytes = l1i.config.block_bytes
        block_shift = block_bytes.bit_length() - 1
        l1d = self.l1d
        l1d_access_ex = l1d.access_ex
        l1d_cache_lookup = l1d.cache.lookup
        mshr_refill_in_flight = l1d.mshrs.refill_in_flight
        mshr_is_full = l1d.mshrs.is_full
        mshr_next_ready = l1d.mshrs.next_ready
        tlbs = self.tlbs
        itlb_probe = tlbs.itlb.access
        dtlb_probe = tlbs.dtlb.access
        l2tlb_probe = tlbs.l2.access
        predictor = self.predictor
        predict_branch = predictor.predict_branch
        resolve_branch = predictor.resolve_branch
        predict_indirect = predictor.predict_indirect
        resolve_indirect = predictor.resolve_indirect
        ras_push = predictor.ras.push
        btb_lookup = predictor.btb.lookup
        btb_insert = predictor.btb.insert
        dprefetcher = self.dprefetcher
        fetch_width = config.fetch_width
        redirect_latency = config.redirect_latency
        icache_prefetch = config.icache_prefetch
        rob_capacity = config.rob_entries

        # Event accumulation in plain local counters.  Commit fills a
        # prefix of lanes, bubbles and D$-blocked a suffix, so one
        # histogram bump per cycle records each, and the lane lists are
        # prefix/suffix sums after the run.
        n_fence_retired = 0
        n_br_mispredict = 0
        n_cf_mispredict = 0
        n_flush = 0
        n_icache_blocked = 0
        n_itlb_miss = 0
        n_icache_miss = 0
        n_dtlb_miss = 0
        n_l2tlb_miss = 0
        n_dcache_miss = 0
        n_recovering = 0
        lanes_issued = [0] * issue_width
        commit_hist = [0] * (w_c + 1)   # index: lanes committed (1..w_c)
        bubble_hist = [0] * w_c         # index: first bubbling lane
        blocked_hist = [0] * w_c        # index: first D$-blocked lane

        # An unrecorded run tests ``note`` once per cycle.
        note = None if stream is None else stream.start(
            _stream_layout(w_c, issue_width), ("uops_retired", "instr_retired"))
        hook = self.fault_hook
        stalled = 0

        def flush_younger(from_seq: int) -> None:
            # Squash the ROB tail, filter the issue/store/pending
            # queues, drain the fetch buffer.  Every flushed slot is
            # freed here — its generation bump is what later identifies
            # stale producer tokens.
            nonlocal rob_len, fb_len
            while rob and u_seq[rob[-1]] >= from_seq:
                sl = rob.pop()
                u_flushed[sl] = True
                u_gen[sl] += 1
                prod = u_prod[sl]
                if prod:
                    del prod[:]
                free_append(sl)
            rob_len = len(rob)
            for queue in iqs:
                queue[:] = [sl for sl in queue if not u_flushed[sl]]
            for parked_q in parked:
                if parked_q:
                    # Parked entries are ROB residents too: purge the
                    # flushed ones so the heaps never hold ghosts.
                    live = [p for p in parked_q if p[1] < from_seq]
                    if len(live) != len(parked_q):
                        parked_q[:] = live
                        heapify(parked_q)
            for sl in fetch_buffer:
                u_flushed[sl] = True
                u_gen[sl] += 1
                prod = u_prod[sl]
                if prod:
                    del prod[:]
                free_append(sl)
            fetch_buffer.clear()
            fb_len = 0
            stq[:] = [sl for sl in stq if not u_flushed[sl]]
            pending_resolves[:] = [sl for sl in pending_resolves
                                   if not u_flushed[sl]]

        def recount_queues() -> Tuple[int, int]:
            ld = st = 0
            for sl in rob:
                s = u_s[sl]
                if s >= 0:
                    if d_is_load[s]:
                        ld += 1
                    if d_is_store[s]:
                        st += 1
            return ld, st

        while retired < total and cycle < safety_limit:
            if cycle >= limit:
                if cycle >= horizon:
                    if cycle == max_cycles and cycle > handoff:
                        # Jumped over the bound into the watchdog, whose
                        # check ends the cycle before: hand off there.
                        handoff = yield cycle - 1
                    check_cycle_budget(cycle, max_cycles,
                                       workload=trace.program_name,
                                       retired=retired, total=total)
                    # Frozen cycles: the whole core stops.
                    resume, horizon = stall_from(hook, cycle, end)
                    stalled += resume - cycle
                    cycle = resume
                else:
                    handoff = yield cycle
                limit = min(horizon, handoff)
                continue
            dtlb_counted = False
            l2tlb_counted = False
            dcache_counted = False

            # ---------------- commit ----------------------------------
            commit_lanes = 0
            fence_slot = -1
            while rob_len and commit_lanes < w_c:
                head = rob[0]
                done = u_completed[head]
                if not u_issued[head] or done is None or done > cycle:
                    break
                rob_popleft()
                rob_len -= 1
                commit_lanes += 1
                retired += 1
                s = u_s[head]
                if s >= 0:
                    if d_is_load[s]:
                        if ldq_used:
                            ldq_used -= 1
                    if d_is_store[s]:
                        if stq_used:
                            stq_used -= 1
                        if head in stq:
                            stq.remove(head)
                    if head == serialized_slot \
                            and u_gen[head] == serialized_gen:
                        serialized_slot = -1
                        serialized_gen = -1
                    if d_is_fence[s]:
                        n_fence_retired += 1
                        fence_slot = head
                        break
                # Free the slot — unless a mispredict resolution still
                # owns it (commit runs before resolve in the cycle).
                if u_in_resolve[head]:
                    u_committed[head] = True
                else:
                    u_gen[head] += 1
                    prod = u_prod[head]
                    if prod:
                        del prod[:]
                    free_append(head)
            if commit_lanes:
                commit_hist[commit_lanes] += 1

            if fence_slot >= 0:
                # Intended flush: restart the frontend after the fence.
                flush_younger(u_seq[fence_slot] + 1)
                ldq_used, stq_used = recount_queues()
                fetch_idx = u_dyn[fence_slot] + 1
                fetch_resume_at = cycle + redirect_latency
                recovering = True
                recovering_from = cycle + 1
                wrong_path = False
                if d_is_fence_i[u_s[fence_slot]]:
                    l1i.flush()
                u_gen[fence_slot] += 1
                prod = u_prod[fence_slot]
                if prod:
                    del prod[:]
                free_append(fence_slot)

            # ---------------- resolve mispredicted control flow -------
            if pending_resolves:
                resolved = -1
                resolved_seq = 0
                for sl in pending_resolves:
                    done = u_completed[sl]
                    if u_issued[sl] and done is not None and done <= cycle:
                        sq = u_seq[sl]
                        if resolved < 0 or sq < resolved_seq:
                            resolved = sl
                            resolved_seq = sq
                if resolved >= 0:
                    pending_resolves.remove(resolved)
                    u_in_resolve[resolved] = False
                    if d_is_branch[u_s[resolved]]:
                        n_br_mispredict += 1
                    else:
                        n_cf_mispredict += 1
                    flush_younger(resolved_seq + 1)
                    ldq_used, stq_used = recount_queues()
                    fetch_idx = u_dyn[resolved] + 1
                    fetch_resume_at = cycle + redirect_latency
                    recovering = True
                    recovering_from = cycle + 1
                    wrong_path = False
                    if u_committed[resolved]:
                        u_gen[resolved] += 1
                        prod = u_prod[resolved]
                        if prod:
                            del prod[:]
                        free_append(resolved)

            # ---------------- issue ------------------------------------
            issued_total = 0
            issue_lane = 0
            machine_clear_slot = -1
            any_queue_nonempty = bool(iqs[0] or iqs[1] or iqs[2]
                                      or parked[0] or parked[1] or parked[2])
            if any_queue_nonempty:
                for queue_index in (0, 1, 2):
                    queue = iqs[queue_index]
                    parked_q = parked[queue_index]
                    # Re-admit parked entries whose bound has passed, at
                    # their age-ordered position (queues stay seq-sorted
                    # because dispatch appends in seq order).
                    while parked_q and parked_q[0][0] <= cycle:
                        _, pseq, pslot = heappop(parked_q)
                        u_park[pslot] = 0
                        lo_i = 0
                        hi_i = len(queue)
                        while lo_i < hi_i:
                            mid = (lo_i + hi_i) >> 1
                            if u_seq[queue[mid]] < pseq:
                                lo_i = mid + 1
                            else:
                                hi_i = mid
                        queue.insert(lo_i, pslot)
                    ports = issue_ports[queue_index]
                    issued_here = 0
                    if queue:
                        # ``kept`` stays None (no list rebuild) on the
                        # common all-waiting cycle.
                        kept: Optional[List[int]] = None
                        pos = 0
                        for slot in queue:
                            ok = False
                            park_at = 0
                            if issued_here >= ports:
                                # Ports exhausted: the rest of the queue
                                # is untouched this cycle.
                                break
                            # ---- wakeup: producers complete? ----
                            prod = u_prod[slot]
                            is_ready = True
                            while prod:
                                ref = prod[-1]
                                psl = ref >> 32
                                if u_gen[psl] != ref & _GENMASK:
                                    # Stale token: the producer left
                                    # the ROB (committed or flushed)
                                    # — either way it no longer
                                    # gates wakeup.
                                    prod.pop()
                                    continue
                                pdone = u_completed[psl]
                                if pdone is not None:
                                    if pdone <= cycle:
                                        prod.pop()
                                        continue
                                    # Completion cycle is known and
                                    # final: park until then.
                                    park_at = pdone
                                else:
                                    ppark = u_park[psl]
                                    if ppark:
                                        # Producer itself parked: it
                                        # cannot issue before its bound,
                                        # so this µop cannot wake before
                                        # the cycle after it.
                                        park_at = ppark + 1
                                is_ready = False
                                break
                            if is_ready:
                                # ---- issue ----------------------
                                s = u_s[slot]
                                if s < 0:
                                    u_completed[slot] = cycle + 1
                                    ok = True
                                elif d_is_load[s]:
                                    # ---- load ------------------
                                    lo = u_mem_addr[slot]
                                    hi = lo + d_memw[s]
                                    myseq = u_seq[slot]
                                    blocking = -1
                                    for st in stq:
                                        if u_seq[st] >= myseq \
                                                or u_issued[st] \
                                                or u_flushed[st]:
                                            continue
                                        sa = u_mem_addr[st]
                                        if sa < hi and lo < sa \
                                                + d_memw[u_s[st]]:
                                            blocking = st
                                            break
                                    if blocking >= 0:
                                        pc = d_pc[s]
                                        if pc in trained_loads:
                                            ok = False
                                        else:
                                            v = u_viol[blocking]
                                            if v is None or myseq < v:
                                                u_viol[blocking] = myseq
                                            trained_loads.add(pc)
                                            u_completed[slot] = cycle + 2
                                            ok = True
                                    else:
                                        fwd = -1
                                        fwd_seq = -1
                                        lw = d_memw[s]
                                        for st in stq:
                                            if u_seq[st] >= myseq \
                                                    or not u_issued[st] \
                                                    or u_flushed[st]:
                                                continue
                                            if u_mem_addr[st] == lo and \
                                                    d_memw[u_s[st]] \
                                                    >= lw:
                                                if u_seq[st] > fwd_seq:
                                                    fwd = st
                                                    fwd_seq = u_seq[st]
                                        if fwd >= 0:
                                            # store-to-load forward
                                            u_completed[slot] = cycle + 2
                                            ok = True
                                        else:
                                            if dtlb_probe(lo):
                                                tlb_extra = 0
                                            else:
                                                if not dtlb_counted:
                                                    n_dtlb_miss += 1
                                                    dtlb_counted = True
                                                if l2tlb_probe(lo):
                                                    tlb_extra = \
                                                        L2_TLB_HIT_LATENCY
                                                else:
                                                    tlb_extra = \
                                                        PTW_LATENCY
                                                    if not l2tlb_counted:
                                                        n_l2tlb_miss += 1
                                                        l2tlb_counted = \
                                                            True
                                            if mshr_is_full(cycle) and \
                                                    not l1d_cache_lookup(
                                                        lo):
                                                # no MSHR for a
                                                # would-be miss
                                                ok = False
                                            else:
                                                hit, ready_at, primary = \
                                                    l1d_access_ex(
                                                        lo, cycle)
                                                if primary:
                                                    if not \
                                                            dcache_counted:
                                                        n_dcache_miss += 1
                                                        dcache_counted = \
                                                            True
                                                if dprefetcher \
                                                        is not None:
                                                    targets = \
                                                        dprefetcher.train(
                                                            d_pc[s], lo)
                                                    if targets:
                                                        dprefetcher.issue(
                                                            l1d, targets,
                                                            cycle)
                                                u_completed[slot] = \
                                                    ready_at + tlb_extra
                                                ok = True
                                elif d_is_store[s]:
                                    # ---- store -----------------
                                    addr = u_mem_addr[slot]
                                    if dtlb_probe(addr):
                                        tlb_extra = 0
                                    else:
                                        if not dtlb_counted:
                                            n_dtlb_miss += 1
                                            dtlb_counted = True
                                        # L2 probe for latency/state
                                        # only: stores don't assert
                                        # l2_tlb_miss.
                                        if l2tlb_probe(addr):
                                            tlb_extra = \
                                                L2_TLB_HIT_LATENCY
                                        else:
                                            tlb_extra = PTW_LATENCY
                                    _, _, primary = l1d_access_ex(
                                        addr, cycle, is_store=True)
                                    if primary and not dcache_counted:
                                        n_dcache_miss += 1
                                        dcache_counted = True
                                    u_completed[slot] = \
                                        cycle + 1 + tlb_extra
                                    ok = True
                                else:
                                    u_completed[slot] = \
                                        cycle + d_lat[s]
                                    ok = True
                            if ok:
                                u_issued[slot] = True
                                lanes_issued[issue_lane + issued_here] += 1
                                issued_here += 1
                                if u_mispred[slot]:
                                    pending_append(slot)
                                    u_in_resolve[slot] = True
                                if u_viol[slot] is not None \
                                        and machine_clear_slot < 0:
                                    machine_clear_slot = slot
                                if kept is None:
                                    kept = queue[:pos]
                            elif park_at:
                                # Blocked with a known wake bound: leave
                                # the scanned queue until it passes.
                                u_park[slot] = park_at
                                heappush(parked_q,
                                         (park_at, u_seq[slot], slot))
                                if kept is None:
                                    kept = queue[:pos]
                            elif kept is not None:
                                kept.append(slot)
                            pos += 1
                        if kept is not None:
                            if pos < len(queue):
                                # Early port-exhaustion break: the
                                # unscanned tail stays queued.
                                kept.extend(queue[pos:])
                            queue[:] = kept
                    issued_total += issued_here
                    issue_lane += ports

            if machine_clear_slot >= 0:
                load_seq = u_viol[machine_clear_slot]
                u_viol[machine_clear_slot] = None
                refetch_index = -1
                for sl in rob:
                    if u_seq[sl] == load_seq and u_s[sl] >= 0:
                        refetch_index = u_dyn[sl]
                        break
                if refetch_index >= 0:
                    # Memory-ordering violation: machine clear, squash
                    # from the offending load onward and refetch it.
                    n_flush += 1
                    self.machine_clears += 1
                    flush_younger(load_seq)
                    ldq_used, stq_used = recount_queues()
                    fetch_idx = refetch_index
                    fetch_resume_at = cycle + redirect_latency
                    recovering = True
                    recovering_from = cycle + 1
                    wrong_path = False
                    if serialized_slot >= 0 \
                            and u_gen[serialized_slot] != serialized_gen:
                        # The serialized µop was flushed (and freed).
                        serialized_slot = -1
                        serialized_gen = -1

            # D$-blocked heuristic (§IV-A): per commit-width slot, high
            # when the slot got no valid instruction, a queue is
            # non-empty, and at least one MSHR is handling a miss.  The
            # blocked slots [issued_total, w_c) form a suffix, so one
            # histogram bump records them all.
            if any_queue_nonempty and issued_total < w_c \
                    and mshr_refill_in_flight(cycle):
                blocked_hist[issued_total] += 1

            # ---------------- dispatch ---------------------------------
            lane = 0 if serialized_slot < 0 else w_c
            while lane < w_c:
                if not fb_len:
                    # No µop for this lane — and every remaining lane is
                    # in the same state, so one histogram bump records
                    # the whole bubble suffix.
                    if not recovering and rob_len < rob_capacity:
                        bubble_hist[lane] += 1
                    break
                if rob_len >= rob_capacity:
                    break
                slot = fetch_buffer[0]
                s = u_s[slot]
                if s >= 0 and d_serializes[s]:
                    if rob_len:
                        break  # wait for the ROB to drain
                    fb_popleft()
                    fb_len -= 1
                    u_issued[slot] = True
                    u_completed[slot] = cycle + 1
                    # The serialized uop bypasses the issue queues but
                    # still occupies issue slot 0 this cycle (the ROB is
                    # empty, so nothing issued from the queues).
                    lanes_issued[0] += 1
                    rob_append(slot)
                    rob_len += 1
                    serialized_slot = slot
                    serialized_gen = u_gen[slot]
                    break  # backend blocked for the remaining lanes
                if s >= 0:
                    queue_index = d_queue[s]
                else:
                    queue_index = (MEM_QUEUE if u_seq[slot] & 3 == 3
                                   else INT_QUEUE)
                queue = iqs[queue_index]
                if len(queue) + len(parked[queue_index]) \
                        >= iq_capacity[queue_index]:
                    break
                if s >= 0:
                    if d_is_load[s] and ldq_used >= ldq_entries:
                        break
                    if d_is_store[s] and stq_used >= stq_entries:
                        break
                fb_popleft()
                fb_len -= 1
                # ---- rename ------------------------------------------
                if s >= 0:
                    srcs = d_srcs[s]
                    if srcs:
                        myprod = u_prod[slot]
                        for src in srcs:
                            plist = reg_producers_get(src)
                            if plist:
                                while plist:
                                    ref = plist[-1]
                                    if u_gen[ref >> 32] != ref & _GENMASK:
                                        plist.pop()
                                    else:
                                        break
                                if plist:
                                    myprod.append(plist[-1])
                    dest = d_dest[s]
                    if dest >= 0:
                        plist = reg_producers_get(dest)
                        token = (slot << 32) | u_gen[slot]
                        if plist is None:
                            reg_producers[dest] = [token]
                        else:
                            plist.append(token)
                    if d_is_load[s]:
                        ldq_used += 1
                    if d_is_store[s]:
                        stq_used += 1
                        stq_append(slot)
                rob_append(slot)
                rob_len += 1
                queue.append(slot)
                lane += 1

            # ---------------- fetch ------------------------------------
            if l1i_refill_until > cycle and not fb_len:
                n_icache_blocked += 1

            fetched_any = False
            if fb_len < fb_capacity and cycle >= fetch_resume_at:
                if wrong_path:
                    # ---- wrong-path phantoms -------------------------
                    for _ in range(min(fetch_width, fb_capacity - fb_len)):
                        if free_slots:
                            slot = free_pop()
                            u_seq[slot] = seq
                            u_dyn[slot] = -1
                            u_s[slot] = -1
                            u_completed[slot] = None
                            u_flushed[slot] = False
                            u_issued[slot] = False
                            u_mispred[slot] = False
                            u_viol[slot] = None
                            u_in_resolve[slot] = False
                            u_committed[slot] = False
                            u_park[slot] = 0
                        else:
                            slot = len(u_seq)
                            u_seq.append(seq)
                            u_dyn.append(-1)
                            u_s.append(-1)
                            u_mem_addr.append(0)
                            u_completed.append(None)
                            u_flushed.append(False)
                            u_issued.append(False)
                            u_mispred.append(False)
                            u_viol.append(None)
                            u_in_resolve.append(False)
                            u_committed.append(False)
                            u_park.append(0)
                            u_prod.append([])
                            u_gen.append(0)
                        fb_append(slot)
                        fb_len += 1
                        seq += 1
                    fetched_any = True
                elif fetch_idx < total:
                    # ---- fetch one packet ----------------------------
                    pc = d_pc[sidx[fetch_idx]]
                    if itlb_probe(pc):
                        tlb_extra = 0
                    else:
                        n_itlb_miss += 1
                        if l2tlb_probe(pc):
                            tlb_extra = L2_TLB_HIT_LATENCY
                        else:
                            tlb_extra = PTW_LATENCY
                            if not l2tlb_counted:
                                n_l2tlb_miss += 1
                    hit, latency = l1i_access(pc, False, cycle)
                    if not hit:
                        n_icache_miss += 1
                        if icache_prefetch:
                            # Next-line prefetch: pull the following
                            # block alongside (stat-neutral).
                            next_block = ((pc >> block_shift)
                                          << block_shift) + block_bytes
                            if not l1i_lookup(next_block):
                                l1i_access(next_block)
                                l1i_stats.accesses -= 1
                                l1i_stats.misses -= 1
                    latency += tlb_extra
                    if not hit or tlb_extra:
                        fetch_resume_at = cycle + latency
                        l1i_refill_until = cycle + latency
                    else:
                        block = pc >> block_shift
                        fetched = 0
                        prev_pc = None
                        resume_at = cycle + 1
                        while (fetch_idx < total and fetched < fetch_width
                               and fb_len < fb_capacity):
                            dyn = fetch_idx
                            s = sidx[dyn]
                            pc = d_pc[s]
                            if prev_pc is not None and pc != prev_pc + 4:
                                break
                            if pc >> block_shift != block:
                                break
                            if free_slots:
                                slot = free_pop()
                                u_seq[slot] = seq
                                u_dyn[slot] = dyn
                                u_s[slot] = s
                                u_mem_addr[slot] = col_mem[dyn]
                                u_completed[slot] = None
                                u_flushed[slot] = False
                                u_issued[slot] = False
                                u_mispred[slot] = False
                                u_viol[slot] = None
                                u_in_resolve[slot] = False
                                u_committed[slot] = False
                                u_park[slot] = 0
                            else:
                                slot = len(u_seq)
                                u_seq.append(seq)
                                u_dyn.append(dyn)
                                u_s.append(s)
                                u_mem_addr.append(col_mem[dyn])
                                u_completed.append(None)
                                u_flushed.append(False)
                                u_issued.append(False)
                                u_mispred.append(False)
                                u_viol.append(None)
                                u_in_resolve.append(False)
                                u_committed.append(False)
                                u_park.append(0)
                                u_prod.append([])
                                u_gen.append(0)
                            seq += 1
                            end_packet = False
                            if d_is_branch[s]:
                                taken = col_taken[dyn]
                                prediction = predict_branch(pc)
                                mispredicted = prediction.taken != taken
                                u_mispred[slot] = mispredicted
                                resolve_branch(pc, taken, col_next[dyn],
                                               prediction)
                                if mispredicted:
                                    wrong_path = True
                                    end_packet = True
                                elif taken:
                                    end_packet = True
                                    if not prediction.btb_hit:
                                        resume_at = cycle + 2
                            elif d_is_jump[s]:
                                if d_is_call[s]:
                                    ras_push(pc + 4)
                                if btb_lookup(pc) is None:
                                    resume_at = cycle + 2
                                    btb_insert(pc, col_next[dyn])
                                end_packet = True
                            elif d_is_jump_reg[s]:
                                predicted = predict_indirect(
                                    pc, is_return=d_is_return[s])
                                mispredicted = resolve_indirect(
                                    pc, col_next[dyn], predicted)
                                u_mispred[slot] = mispredicted
                                if mispredicted:
                                    wrong_path = True
                                end_packet = True
                            fb_append(slot)
                            fb_len += 1
                            fetched += 1
                            prev_pc = pc
                            fetch_idx += 1
                            if end_packet:
                                break
                        fetch_resume_at = resume_at
                        if fetched:
                            fetched_any = True
            if recovering:
                if fetched_any:
                    recovering = False
                elif cycle >= recovering_from:
                    n_recovering += 1

            if note is not None:
                note(cycle, 1, commit_lanes, (
                    n_fence_retired, n_br_mispredict, n_cf_mispredict,
                    n_flush, n_icache_blocked, n_itlb_miss, n_icache_miss,
                    n_dtlb_miss, n_l2tlb_miss, n_dcache_miss, n_recovering,
                    *lanes_issued, *bubble_hist, *blocked_hist))
            if not commit_lanes and not issued_total and not fetched_any \
                    and not dtlb_counted and recovering_from <= cycle \
                    and lane == (0 if serialized_slot < 0 else w_c):
                # ---------------- quiet-cycle fast-forward ------------
                # Nothing committed, resolved, issued, cleared (a flush
                # sets ``recovering_from`` to the next cycle), dispatched
                # (``lane`` is where dispatch started) or fetched, and
                # no blocked load's DTLB probe missed: the pipeline is
                # as this cycle found it, up to parked entries and an
                # I$ miss's refill bounds.  Every cycle before the next
                # bound that can change it asserts the same events: add
                # them for the whole stretch and jump to that bound.
                wake = horizon
                if rob_len:
                    head = rob[0]
                    if u_issued[head] and u_completed[head] < wake:
                        wake = u_completed[head]
                for sl in pending_resolves:
                    if u_completed[sl] < wake:
                        wake = u_completed[sl]
                for parked_q in parked:
                    if parked_q and parked_q[0][0] < wake:
                        wake = parked_q[0][0]
                for bound in (fetch_resume_at, l1i_refill_until,
                              mshr_next_ready(cycle)):
                    if cycle < bound < wake:
                        wake = bound
                quiet = cycle + 1
                skipped = wake - quiet
                if skipped > 0:
                    if not fb_len:
                        if serialized_slot < 0 and not recovering \
                                and rob_len < rob_capacity:
                            bubble_hist[0] += skipped
                        if l1i_refill_until > quiet:
                            n_icache_blocked += skipped
                    if any_queue_nonempty and mshr_refill_in_flight(quiet):
                        blocked_hist[0] += skipped
                    if recovering:
                        n_recovering += skipped
                    if note is not None:
                        note(quiet, skipped, 0, (
                            n_fence_retired, n_br_mispredict,
                            n_cf_mispredict, n_flush, n_icache_blocked,
                            n_itlb_miss, n_icache_miss, n_dtlb_miss,
                            n_l2tlb_miss, n_dcache_miss, n_recovering,
                            *lanes_issued, *bubble_hist, *blocked_hist))
                    cycle = wake - 1
            cycle += 1

        check_run_completed(retired, total, cycle, max_cycles,
                            workload=trace.program_name)

        # Rebuild the totals and lane lists: totals only for events that
        # were ever asserted, lane lists ending at the highest lane ever
        # asserted.  ``retired`` doubles as both retire totals because
        # every commit asserts both on ``commit_lanes`` lanes exactly
        # when it advances ``retired`` by the same amount.
        active = cycle - stalled
        events: Dict[str, int] = {"cycles": active} if active else {}
        lane_events: Dict[str, List[int]] = {}
        uops_issued = sum(lanes_issued)
        if uops_issued:
            events["uops_issued"] = uops_issued
            while lanes_issued and not lanes_issued[-1]:
                lanes_issued.pop()
            lane_events["uops_issued"] = lanes_issued
        if retired:
            events["uops_retired"] = retired
            events["instr_retired"] = retired
            # Commit fills a lane prefix: lane i is asserted by every
            # cycle that committed more than i µops (suffix sums).
            lanes = [0] * w_c
            acc = 0
            for width in range(w_c, 0, -1):
                acc += commit_hist[width]
                lanes[width - 1] = acc
            while lanes and not lanes[-1]:
                lanes.pop()
            lane_events["uops_retired"] = lanes
        for name, hist in (("fetch_bubbles", bubble_hist),
                           ("dcache_blocked", blocked_hist)):
            # Suffix patterns: a cycle recorded at *start* asserts every
            # lane from start to w_c-1 (prefix sums), so lane w_c-1 is
            # asserted whenever the event fired at all — no trim needed.
            total_slots = 0
            lanes = [0] * w_c
            acc = 0
            for start in range(w_c):
                acc += hist[start]
                lanes[start] = acc
                total_slots += hist[start] * (w_c - start)
            if total_slots:
                events[name] = total_slots
                lane_events[name] = lanes
        for name, count in (("fence_retired", n_fence_retired),
                            ("br_mispredict", n_br_mispredict),
                            ("cf_target_mispredict", n_cf_mispredict),
                            ("flush", n_flush),
                            ("icache_blocked", n_icache_blocked),
                            ("itlb_miss", n_itlb_miss),
                            ("icache_miss", n_icache_miss),
                            ("dtlb_miss", n_dtlb_miss),
                            ("l2_tlb_miss", n_l2tlb_miss),
                            ("dcache_miss", n_dcache_miss),
                            ("recovering", n_recovering)):
            if count:
                events[name] = count
        return CoreResult(
            workload=trace.program_name, config_name=config.name,
            core="boom", cycles=cycle, instret=retired,
            events=events, lane_events=lane_events,
            commit_width=w_c, issue_width=issue_width,
            l1i_stats=self.l1i.stats, l1d_stats=self.l1d.stats,
            l2_stats=self.memory.l2.stats,
            predictor_stats=self.predictor.stats,
            extra={"machine_clears": float(self.machine_clears),
                   "decode_resteers": float(self.predictor.decode_resteers)})
