"""Cycle-level timing model of the Rocket in-order core (Fig. 2a).

The model replays a committed-path dynamic trace through a 5-stage
in-order pipeline abstraction:

- a fetch engine with an L1 I-cache, ITLB, BHT+BTB predictor, and an
  instruction buffer speaking ready/valid to decode (signal taps ③ of
  the motivating example);
- a single-issue execute stage with a register scoreboard (load-use,
  long-latency, mul/div, and CSR interlocks), a blocking L1 D-cache and
  DTLB, and execute-stage branch resolution with frontend flush and
  redirect on mispredicts (①②④⑤ in Fig. 2a).

Every cycle the model asserts the events described in
:mod:`repro.cores.base`; the Rocket rows of Table I plus the two raw
handshake taps ``ibuf_valid``/``ibuf_ready`` (which the paper adds to the
trace, not the PMU) are all produced here.

There is one cycle loop.  It reads the trace columns through a compiled
descriptor table and accumulates event totals in place; the same loop
records each cycle's signals on a :class:`~repro.cores.base.SignalStream`
and yields each cycle when stepped (see :meth:`RocketCore.run`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from ...isa.columnar import ColumnarTrace
from ...uarch.branch import RocketBranchPredictor
from ...uarch.cache import Cache, MemorySystem
from ...uarch.tlb import L2_TLB_HIT_LATENCY, PTW_LATENCY, TlbHierarchy
from ..base import (CoreFaultHook, CoreResult, CycleSteps, RocketConfig,
                    SignalStream, check_cycle_budget, check_run_completed,
                    run_steps)
from ..descriptors import build_rocket_table

_SAFETY_CYCLES_PER_INST = 400

#: Every event name the loop can assert, pre-seeded to zero so the hot
#: loop is a bare ``totals[name] += 1`` (zero entries are stripped
#: before the result is built).
_EVENT_NAMES = (
    "cycles", "csr_interlock", "dcache_blocked", "muldiv_interlock",
    "load_use_interlock", "long_latency_interlock", "instr_issued",
    "instr_retired", "load", "store", "atomic", "branch", "fence",
    "system", "arith", "dtlb_miss", "l2_tlb_miss", "dcache_miss",
    "branch_resolved", "cf_target_mispredict", "cobr_mispredict",
    "recovering", "fetch_bubbles", "icache_blocked", "itlb_miss",
    "icache_miss", "ibuf_valid", "ibuf_ready",
)


#: Single-lane totals; a recorded cycle's issue flag asserts the issue
#: events, which are batched after the loop.
_STREAM_LAYOUT = tuple((name, 1) for name in _EVENT_NAMES)
_ISSUE_EVENTS = ("instr_issued", "instr_retired")


class RocketCore:
    """Trace-driven Rocket timing model."""

    #: Read by ``perfbench/spans.py:148`` in traced runs; signals are
    #: recorded on a :class:`~repro.cores.base.SignalStream` instead.
    observers = ()

    def __init__(self, config: RocketConfig = RocketConfig(),
                 memory: Optional[MemorySystem] = None) -> None:
        self.config = config
        self.memory = memory or MemorySystem.build(l1d_config=config.l1d)
        self.l1i = self.memory.l1i
        self.l1d: Cache = self.memory.blocking_l1d()
        self.tlbs = TlbHierarchy()
        self.predictor = RocketBranchPredictor(
            bht_entries=config.bht_entries, btb_entries=config.btb_entries)
        self.fault_hook: Optional[CoreFaultHook] = None

    # ------------------------------------------------------------------

    def run(self, trace: ColumnarTrace, max_cycles: Optional[int] = None,
            stream: Optional[SignalStream] = None) -> CoreResult:
        """Replay *trace* and return per-event totals.

        *max_cycles* arms a watchdog (default off): exceeding the budget
        raises :class:`~repro.isa.errors.RunTimeout` instead of spinning
        until the internal safety stop silently truncates the run.  With
        a fault hook the loop runs stepped (see :meth:`steps`), each
        cycle answered by its ``stall_cycle``; a *stream* records every
        cycle that is not stalled.
        """
        hook = self.fault_hook
        self.reset_run_state()
        return run_steps(
            self._run_columnar(trace, max_cycles, hook is not None, stream),
            hook)

    def steps(self, trace: ColumnarTrace,
              max_cycles: Optional[int] = None) -> CycleSteps:
        """The cycle loop of one run of *trace*, as a coroutine that
        yields each cycle number, takes back whether it stalls, and
        returns the :class:`CoreResult`.  Whoever sends the answers owns
        the cycle (``fault_hook`` is not consulted), which is how the
        multicore harness steps several cores in one thread."""
        self.reset_run_state()
        return self._run_columnar(trace, max_cycles, True, None)

    def reset_run_state(self) -> None:
        """Clear per-run scratch state: a no-op, since Rocket keeps it in
        run-local variables (see
        :meth:`repro.cores.boom.BoomCore.reset_run_state`)."""

    # ------------------------------------------------------------------
    # the cycle loop: descriptor table + trace columns
    # ------------------------------------------------------------------

    def _run_columnar(self, trace: ColumnarTrace, max_cycles: Optional[int],
                      stepped: bool,
                      stream: Optional[SignalStream]) -> CycleSteps:
        """The pipeline model over trace columns.

        Every static fact comes from the :class:`~repro.cores.descriptors
        .RocketOpTable` compiled once per trace, and every dynamic fact
        from the flat trace columns.  Instruction-buffer entries are
        plain ``(dyn_index, static_index, prediction, indirect)`` tuples.
        Signals that two pipeline stages may assert in the same cycle
        (``l2_tlb_miss``, ``recovering``) are deduplicated with per-cycle
        flags, so every event moves by at most one per cycle and a
        cycle's signals are the set of totals that moved.

        A *stepped* loop yields at the top of every cycle; an unstepped
        one never reaches the yield and returns in its first ``next``.
        """
        config = self.config
        total = len(trace)

        table: "RocketOpTable" = trace.timing_table(  # noqa: F821
            "rocket", build_rocket_table)
        d_pc = table.pc
        d_dest = table.dest
        d_srcs = table.srcs
        d_lat = table.latency
        d_signal = table.signal
        d_is_mem = table.is_mem
        d_is_store = table.is_store
        d_is_branch = table.is_branch
        d_is_fence = table.is_fence
        d_is_fence_i = table.is_fence_i
        d_is_div = table.is_div
        d_is_mul = table.is_mul
        d_is_csr = table.is_csr
        d_is_fp = table.is_fp
        d_is_jump = table.is_jump
        d_is_jump_reg = table.is_jump_reg
        d_is_call = table.is_call
        d_is_return = table.is_return
        d_is_cf = table.is_cf
        sidx = trace.sidx
        col_mem = trace.mem_addr
        col_next = trace.next_pc
        col_taken = trace.taken

        ibuf: Deque[tuple] = deque()
        ibuf_popleft = ibuf.popleft
        ibuf_append = ibuf.append
        ibuf_clear = ibuf.clear
        ibuf_capacity = config.ibuf_entries

        totals: Dict[str, int] = dict.fromkeys(_EVENT_NAMES, 0)
        # A plain run tests ``stepped`` and ``note`` once per cycle.
        note = None if stream is None else \
            stream.start(_STREAM_LAYOUT, _ISSUE_EVENTS)
        stalled = 0

        fetch_idx = 0
        retired = 0
        cycle = 0
        safety_limit = total * _SAFETY_CYCLES_PER_INST + 10_000
        budget = safety_limit + 1 if max_cycles is None else max_cycles
        # A fast-forward never jumps past the watchdog or the safety
        # stop, so both fire at the cycle a stepped run reaches them.
        horizon = min(budget, safety_limit)

        reg_ready = [0] * 64
        reg_producer = [""] * 64

        fetch_resume_at = 0
        icache_refill_until = 0
        recovering = False
        recovering_from = 0
        dcache_busy_until = 0
        div_busy_until = 0
        serialize_until = 0

        l1i = self.l1i
        l1i_access = l1i.access
        block_shift = l1i.config.block_bytes.bit_length() - 1
        l1d_access = self.l1d.access
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
        fetch_width = config.fetch_width
        redirect_latency = config.redirect_latency

        while retired < total and cycle < safety_limit:
            if cycle >= budget:
                check_cycle_budget(cycle, max_cycles,
                                   workload=trace.program_name,
                                   retired=retired, total=total)
            if stepped and (yield cycle):
                # Stalled cycle: the whole core freezes this cycle.
                stalled += 1
                cycle += 1
                continue
            issued_this_cycle = False
            l2_tlb_counted = False
            recovering_counted = False

            # ---------------- execute / retire ------------------------
            if ibuf:
                entry = ibuf[0]
                dyn = entry[0]
                s = entry[1]
                # ``stall`` names the event this cycle's stall asserts
                # (a long-latency load also asserts ``dcache_blocked``
                # in place); None issues the head.
                if serialize_until > cycle:
                    stall = "csr_interlock"
                elif d_is_mem[s] and dcache_busy_until > cycle:
                    stall = "dcache_blocked"
                elif d_is_div[s] and div_busy_until > cycle:
                    stall = "muldiv_interlock"
                else:
                    stall = None
                    for src in d_srcs[s]:
                        if reg_ready[src] > cycle:
                            producer = reg_producer[src]
                            if producer == "load":
                                if reg_ready[src] - cycle > 4:
                                    totals["dcache_blocked"] += 1
                                    stall = "long_latency_interlock"
                                else:
                                    stall = "load_use_interlock"
                            elif producer in ("mul", "div"):
                                stall = "muldiv_interlock"
                            else:
                                stall = "long_latency_interlock"
                            break

                if stall is not None:
                    totals[stall] += 1
                else:
                    ibuf_popleft()
                    issued_this_cycle = True
                    retired += 1
                    totals[d_signal[s]] += 1

                    dcache_refill_until = 0
                    redirect = None
                    dest = d_dest[s]
                    if d_is_mem[s]:
                        mem_addr = col_mem[dyn]
                        if dtlb_probe(mem_addr):
                            tlb_extra = 0
                        else:
                            totals["dtlb_miss"] += 1
                            if l2tlb_probe(mem_addr):
                                tlb_extra = L2_TLB_HIT_LATENCY
                            else:
                                tlb_extra = PTW_LATENCY
                                totals["l2_tlb_miss"] += 1
                                l2_tlb_counted = True
                        hit, latency = l1d_access(mem_addr,
                                                  d_is_store[s], cycle)
                        latency += tlb_extra
                        if not hit:
                            totals["dcache_miss"] += 1
                            dcache_refill_until = cycle + latency
                        if dest >= 0:
                            reg_ready[dest] = cycle + latency
                            reg_producer[dest] = "load"
                    elif d_is_mul[s]:
                        if dest >= 0:
                            reg_ready[dest] = cycle + d_lat[s]
                            reg_producer[dest] = "mul"
                    elif d_is_div[s]:
                        if dest >= 0:
                            reg_ready[dest] = cycle + d_lat[s]
                            reg_producer[dest] = "div"
                    elif d_is_fp[s]:
                        if dest >= 0:
                            reg_ready[dest] = cycle + d_lat[s]
                            reg_producer[dest] = "fp"
                    elif d_is_branch[s]:
                        totals["branch_resolved"] += 1
                        prediction = entry[2]
                        taken = col_taken[dyn]
                        if resolve_branch(d_pc[s], taken,
                                          col_next[dyn], prediction):
                            if prediction is not None \
                                    and prediction.taken == taken:
                                totals["cf_target_mispredict"] += 1
                            else:
                                totals["cobr_mispredict"] += 1
                            redirect = cycle + redirect_latency
                    elif d_is_jump_reg[s]:
                        if resolve_indirect(d_pc[s], col_next[dyn],
                                            entry[3]):
                            totals["cf_target_mispredict"] += 1
                            redirect = cycle + redirect_latency
                    elif dest >= 0:
                        reg_ready[dest] = cycle + d_lat[s]
                        reg_producer[dest] = "alu"

                    if redirect is not None:
                        ibuf_clear()
                        fetch_idx = dyn + 1
                        fetch_resume_at = redirect
                        recovering = True
                        recovering_from = cycle + 1
                    if d_is_div[s]:
                        div_busy_until = cycle + d_lat[s]
                    elif d_is_csr[s]:
                        serialize_until = cycle + 2
                    elif d_is_fence[s]:
                        serialize_until = cycle + 3
                        if d_is_fence_i[s]:
                            l1i.flush()
                    elif d_is_mem[s]:
                        dcache_busy_until = max(dcache_busy_until,
                                                dcache_refill_until)
            else:
                backend_ready = (serialize_until <= cycle
                                 and dcache_busy_until <= cycle)
                if recovering and cycle >= recovering_from:
                    totals["recovering"] += 1
                    recovering_counted = True
                elif backend_ready and not recovering:
                    totals["fetch_bubbles"] += 1
                elif dcache_busy_until > cycle:
                    totals["dcache_blocked"] += 1

            # ---------------- fetch -----------------------------------
            if icache_refill_until > cycle and not ibuf:
                totals["icache_blocked"] += 1

            fetched_any = False
            if (fetch_idx < total and cycle >= fetch_resume_at
                    and len(ibuf) < ibuf_capacity):
                pc = d_pc[sidx[fetch_idx]]
                if itlb_probe(pc):
                    tlb_extra = 0
                else:
                    totals["itlb_miss"] += 1
                    if l2tlb_probe(pc):
                        tlb_extra = L2_TLB_HIT_LATENCY
                    else:
                        tlb_extra = PTW_LATENCY
                        if not l2_tlb_counted:
                            totals["l2_tlb_miss"] += 1
                hit, latency = l1i_access(pc, False, cycle)
                latency += tlb_extra
                if not hit or tlb_extra:
                    if not hit:
                        totals["icache_miss"] += 1
                    fetch_resume_at = cycle + latency
                    icache_refill_until = cycle + latency
                else:
                    block = pc >> block_shift
                    fetched = 0
                    idx = fetch_idx
                    prev_pc = None
                    resume_at = cycle + 1
                    while (idx < total and fetched < fetch_width
                           and len(ibuf) < ibuf_capacity):
                        s = sidx[idx]
                        pc = d_pc[s]
                        if prev_pc is not None and pc != prev_pc + 4:
                            break
                        if pc >> block_shift != block:
                            break
                        prediction = None
                        indirect = None
                        if d_is_branch[s]:
                            prediction = predict_branch(pc)
                        elif d_is_jump[s]:
                            if d_is_call[s]:
                                ras_push(pc + 4)
                        elif d_is_jump_reg[s]:
                            indirect = predict_indirect(
                                pc, is_return=d_is_return[s])
                        ibuf_append((idx, s, prediction, indirect))
                        fetched += 1
                        prev_pc = pc
                        if d_is_cf[s] and col_taken[idx]:
                            idx += 1
                            resume_at = cycle + 2
                            break
                        idx += 1
                    fetch_resume_at = resume_at
                    if fetched:
                        fetched_any = True
                        fetch_idx = idx
            if recovering:
                if fetched_any:
                    recovering = False
                elif cycle >= recovering_from and not recovering_counted:
                    totals["recovering"] += 1

            # Raw handshake taps for the motivating example (Fig. 3).
            if ibuf:
                totals["ibuf_valid"] += 1
            if not issued_this_cycle and serialize_until <= cycle \
                    and dcache_busy_until <= cycle:
                totals["ibuf_ready"] += 1

            if note is not None:
                note(cycle, 1, issued_this_cycle, totals.values())
            if not stepped:
                if not issued_this_cycle and not fetched_any:
                    # ---------------- quiet-cycle fast-forward ------------
                    # Nothing issued or fetched, so the pipeline is as this
                    # cycle found it (an I$ miss moved only the refill
                    # bounds).  Every cycle before the next bound that can
                    # change it asserts the same events: add them for the
                    # whole stretch and jump to that bound.  A redirect
                    # needs an issue, so ``recovering_from`` is never ahead.
                    quiet = cycle + 1
                    wake = horizon
                    if ibuf:
                        # The blocking source first: mostly a load-use
                        # interlock that ends next cycle, so no skip.
                        for src in d_srcs[ibuf[0][1]]:
                            bound = reg_ready[src]
                            if bound > cycle:
                                if bound < wake:
                                    wake = bound
                                # load-use turns long-latency above 4 cycles
                                if reg_producer[src] == "load" \
                                        and cycle < bound - 4 < wake:
                                    wake = bound - 4
                                break
                    if wake > quiet:
                        for bound in (serialize_until, dcache_busy_until,
                                      div_busy_until, fetch_resume_at,
                                      icache_refill_until):
                            if cycle < bound < wake:
                                wake = bound
                    skipped = wake - quiet
                    if skipped > 0:
                        backend_ready = (serialize_until <= quiet
                                         and dcache_busy_until <= quiet)
                        if ibuf:
                            totals[stall] += skipped
                            if stall == "long_latency_interlock" \
                                    and producer == "load":
                                totals["dcache_blocked"] += skipped
                            totals["ibuf_valid"] += skipped
                        else:
                            if recovering:
                                totals["recovering"] += skipped
                            elif backend_ready:
                                totals["fetch_bubbles"] += skipped
                            elif dcache_busy_until > quiet:
                                totals["dcache_blocked"] += skipped
                            if icache_refill_until > quiet:
                                totals["icache_blocked"] += skipped
                        if backend_ready:
                            totals["ibuf_ready"] += skipped
                        if note is not None:
                            note(quiet, skipped, False, totals.values())
                        cycle = wake - 1
            cycle += 1

        check_run_completed(retired, total, cycle, max_cycles,
                            workload=trace.program_name)
        totals["cycles"] = cycle - stalled
        # Single-issue Rocket asserts instr_issued/instr_retired together
        # on exactly the retire cycles, so both equal the retire count —
        # batched here instead of two dict increments per issue cycle.
        totals["instr_issued"] = retired
        totals["instr_retired"] = retired
        events = {name: count for name, count in totals.items() if count}
        return CoreResult(
            workload=trace.program_name, config_name=self.config.name,
            core="rocket", cycles=cycle, instret=retired,
            events=events, lane_events={},
            commit_width=1, issue_width=1,
            l1i_stats=self.l1i.stats, l1d_stats=self.l1d.stats,
            l2_stats=self.memory.l2.stats,
            predictor_stats=self.predictor.stats)
