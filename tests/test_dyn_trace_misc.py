"""Unit tests for trace utilities and small remaining gaps."""

import pytest

from repro.isa import InstrClass, assemble, execute
from repro.isa.dyn_trace import FP_REG_BASE, NO_REG


@pytest.fixture(scope="module")
def mixed_trace():
    return execute(assemble("""
    .data
    v: .dword 5
    .text
    _start:
        la t0, v
        ld t1, 0(t0)
        fcvt.d.l ft0, t1
        fadd.d ft1, ft0, ft0
        fcvt.l.d t2, ft1
        sd t2, 0(t0)
        beq t2, t1, same
        addi a0, a0, 1
    same:
        li a7, 93
        ecall
    """))


def test_class_histogram_counts_everything(mixed_trace):
    histogram = mixed_trace.class_histogram()
    assert sum(histogram.values()) == len(mixed_trace)
    assert histogram[InstrClass.FP] >= 3
    assert histogram[InstrClass.BRANCH] == 1


def test_branch_count_and_summary(mixed_trace):
    assert mixed_trace.branch_count() == 1
    summary = mixed_trace.mispredictable_summary()
    assert summary["branches"] == 1
    assert summary["taken"] + summary["not_taken"] == 1


def test_indexing_and_iteration(mixed_trace):
    assert mixed_trace[0].mnemonic == "auipc"   # from `la`
    assert len(list(iter(mixed_trace))) == len(mixed_trace)


def test_fp_register_ids_are_offset(mixed_trace):
    fadd = next(i for i in mixed_trace if i.mnemonic == "fadd.d")
    assert fadd.dest >= FP_REG_BASE
    assert all(src >= FP_REG_BASE for src in fadd.srcs)
    store = next(i for i in mixed_trace if i.mnemonic == "sd")
    assert store.dest == NO_REG


def test_csr_fields_default_inactive(mixed_trace):
    ld = next(i for i in mixed_trace if i.mnemonic == "ld")
    assert ld.csr == -1 and ld.csr_write is None


def test_final_registers_snapshot(mixed_trace):
    # a7 holds the exit syscall number at halt.
    assert mixed_trace.final_int_regs[17] == 93


def test_is_mem_and_control_flow_flags(mixed_trace):
    kinds = {i.mnemonic: i for i in mixed_trace}
    assert kinds["ld"].is_mem and kinds["ld"].is_load
    assert kinds["sd"].is_mem and kinds["sd"].is_store
    assert kinds["beq"].is_control_flow
    assert not kinds["fadd.d"].is_mem
