"""Functional verification of the workload suite.

Every kernel is executed and its exit checksum compared against the
Python twin, at a reduced scale (the registry does the comparison and
raises on mismatch) — a broken kernel cannot silently pass.
"""

import pytest

from repro.workloads import (Workload, build_program, build_trace,
                             get_workload, register, workload_names)

SCALE = 0.35


def test_registry_lists_all_categories():
    assert len(workload_names("micro")) == 12   # incl. coremark
    assert len(workload_names("spec")) == 10
    assert len(workload_names("case-study")) == 3
    assert len(workload_names()) == 25


def test_unknown_workload_raises_with_suggestions():
    with pytest.raises(KeyError):
        get_workload("mystery")


def test_duplicate_registration_rejected():
    existing = get_workload("mergesort")
    with pytest.raises(ValueError):
        register(Workload(name="mergesort", category="micro",
                          source_builder=existing.source_builder))


@pytest.mark.parametrize("name", workload_names())
def test_workload_executes_with_expected_checksum(name):
    trace = build_trace(name, scale=SCALE)
    assert len(trace) > 100
    assert trace.halt_reason == "ecall"


def test_scales_produce_different_sizes():
    small = build_trace("vvadd", scale=0.2)
    large = build_trace("vvadd", scale=0.5)
    assert len(large) > len(small)


def test_coremark_variants_same_instruction_multiset():
    """CS3 precondition: identical instruction counts, only order
    differs in the compute block."""
    base = build_trace("coremark", scale=SCALE)
    sched = build_trace("coremark_sched", scale=SCALE)
    assert len(base) == len(sched)
    assert base.exit_code == sched.exit_code

    def multiset(trace):
        counts = {}
        for inst in trace:
            counts[inst.mnemonic] = counts.get(inst.mnemonic, 0) + 1
        return counts

    assert multiset(base) == multiset(sched)


def test_brmiss_pair_branch_outcomes_flip():
    """CS2 precondition: base chain is all-taken, inverted all
    not-taken (for the chain branches)."""
    base = build_trace("brmiss", scale=0.3)
    inverted = build_trace("brmiss_inv", scale=0.3)
    base_branches = [i for i in base if i.is_branch and i.mnemonic == "blt"]
    inv_branches = [i for i in inverted
                    if i.is_branch and i.mnemonic == "bge"]
    assert base_branches and inv_branches
    assert all(b.taken for b in base_branches)
    # the outer-loop exit is also a bge; the chain itself never takes
    taken = sum(1 for b in inv_branches if b.taken)
    assert taken <= 1


def test_mcf_is_pointer_chase():
    trace = build_trace("505.mcf_r", scale=0.3)
    loads = [i for i in trace if i.is_load]
    distinct_blocks = {i.mem_addr >> 6 for i in loads}
    # A cold chase touches a new block almost every hop.
    assert len(distinct_blocks) > len(loads) * 0.5


def test_deepsjeng_working_set_is_24kib():
    trace = build_trace("531.deepsjeng_r", scale=0.3)
    addresses = {i.mem_addr >> 6 for i in trace if i.is_mem}
    footprint = len(addresses) * 64
    assert 12 * 1024 < footprint <= 26 * 1024


def test_perlbench_code_footprint_exceeds_l1i():
    program = build_program("500.perlbench_r", scale=0.3)
    assert program.code_bytes > 32 * 1024


def test_mm_uses_fp_pipeline():
    from repro.isa import InstrClass

    trace = build_trace("mm", scale=0.5)
    histogram = trace.class_histogram()
    assert histogram.get(InstrClass.FP, 0) > 100
    assert histogram.get(InstrClass.FP_LOAD, 0) > 100


def test_towers_is_call_heavy():
    from repro.isa import InstrClass

    trace = build_trace("towers", scale=0.7)
    histogram = trace.class_histogram()
    assert histogram.get(InstrClass.JUMP, 0) > 50       # calls
    assert histogram.get(InstrClass.JUMP_REG, 0) > 50   # returns


def test_qsort_branches_are_data_dependent():
    trace = build_trace("qsort", scale=SCALE)
    summary = trace.mispredictable_summary()
    taken_rate = summary["taken"] / summary["branches"]
    assert 0.10 < taken_rate < 0.9
