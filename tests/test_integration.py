"""End-to-end integration tests: the paper's qualitative claims.

These run the full pipeline (assemble -> execute -> timing model -> TMA)
at reduced scale and assert the *shape* of each headline result, i.e.
who wins and in which direction — the reproduction's contract.
"""

import pytest

from repro.core import compute_tma
from repro.cores import BoomCore, LARGE_BOOM, ROCKET, SignalStream
from repro.pmu import (AddWiresCounterBank, DistributedCounterBank,
                       ScalarCounterBank, new_events_for_core)
from repro.tools import rocket_with_l1d, run_core, run_tma
from repro.trace import (analyze_overlap, boom_tma_bundle, capture_trace,
                         modal_length, recovery_sequences, temporal_tma,
                         validate_against_counters)
from repro.workloads import build_trace

SCALE = 0.5


def tma(name, config, scale=SCALE):
    return run_tma(name, config, scale=scale)


# ---------------------------------------------------------------------------
# §V-A headline shapes
# ---------------------------------------------------------------------------

def test_qsort_badspec_dominates_rsort_on_rocket():
    """qsort is Bad-Speculation bound; rsort is near-ideal (§V-A)."""
    qsort = tma("qsort", ROCKET)
    rsort = tma("rsort", ROCKET)
    assert qsort.level1["bad_speculation"] \
        > 5 * rsort.level1["bad_speculation"]
    assert rsort.ipc > qsort.ipc * 0.8


def test_memcpy_memory_bound_on_both_cores():
    for config in (ROCKET, LARGE_BOOM):
        result = tma("memcpy", config)
        assert result.level1["backend"] > 0.35
        assert result.level2["mem_bound"] > result.level2["core_bound"]


def test_boom_ipc_beats_rocket_on_ilp_friendly_code():
    for name in ("dhrystone", "coremark"):
        rocket = tma(name, ROCKET)
        boom = tma(name, LARGE_BOOM)
        assert boom.ipc > 1.7 * rocket.ipc


def test_spec_mcf_and_xalancbmk_backend_bound_on_boom():
    """Fig. 7g: 505.mcf_r and 523.xalancbmk_r are ~80% Backend."""
    for name in ("505.mcf_r", "523.xalancbmk_r"):
        result = tma(name, LARGE_BOOM)
        assert result.level1["backend"] > 0.6
        assert result.level2["mem_bound"] > 0.5


def test_spec_x264_high_retiring_with_badspec():
    result = tma("525.x264_r", LARGE_BOOM)
    assert result.level1["retiring"] > 0.35
    assert result.level1["bad_speculation"] > 0.05


def test_spec_frontend_minimal_but_perlbench_largest():
    """Fig. 7: Frontend remains minimal; perlbench shows the most."""
    frontends = {name: tma(name, LARGE_BOOM).level1["frontend"]
                 for name in ("500.perlbench_r", "505.mcf_r",
                              "541.leela_r", "548.exchange2_r")}
    assert max(frontends.values()) == frontends["500.perlbench_r"]
    for name, value in frontends.items():
        if name != "500.perlbench_r":
            assert value < 0.15


def test_top_level_sums_to_one_across_suite():
    for name in ("qsort", "memcpy", "505.mcf_r", "towers"):
        for config in (ROCKET, LARGE_BOOM):
            result = tma(name, config)
            assert result.top_level_sum() == pytest.approx(1.0, abs=1e-9)
            for value in result.level1.values():
                assert value > -0.05  # no grossly negative class


# ---------------------------------------------------------------------------
# Case studies (Fig. 7c/d/e/f/m/n)
# ---------------------------------------------------------------------------

def test_cs1_smaller_l1d_raises_backend_and_slows_down():
    # Full scale: the 24 KiB table must dominate over cold-start noise.
    big = run_tma("531.deepsjeng_r", rocket_with_l1d(32), scale=1.0)
    small = run_tma("531.deepsjeng_r", rocket_with_l1d(16), scale=1.0)
    assert small.cycles > big.cycles * 1.02
    assert small.level1["backend"] > big.level1["backend"] + 0.02
    assert small.level2["mem_bound"] > big.level2["mem_bound"]


def test_cs2_rocket_branch_inversion():
    """Rocket: base always mispredicted, inverted always correct."""
    base = tma("brmiss", ROCKET)
    inverted = tma("brmiss_inv", ROCKET)
    assert inverted.level1["retiring"] > base.level1["retiring"] + 0.10
    assert base.level1["bad_speculation"] \
        > inverted.level1["bad_speculation"] + 0.10
    assert inverted.level1["bad_speculation"] < 0.05


def test_cs2_boom_branch_inversion_opposite_effect():
    """BOOM: base ~0% BadSpec; the inverted build is the slower one."""
    base = tma("brmiss", LARGE_BOOM)
    inverted = tma("brmiss_inv", LARGE_BOOM)
    assert base.level1["bad_speculation"] < 0.02
    assert inverted.level1["bad_speculation"] \
        > base.level1["bad_speculation"] + 0.02
    # The inverted build is the slower one in absolute runtime (the
    # paper's "opposite effect"), explained by its Bad Speculation.
    assert inverted.cycles > base.cycles


def test_cs3_scheduling_helps_rocket_more_than_boom():
    rocket_base = tma("coremark", ROCKET)
    rocket_sched = tma("coremark_sched", ROCKET)
    boom_base = tma("coremark", LARGE_BOOM)
    boom_sched = tma("coremark_sched", LARGE_BOOM)
    rocket_gain = rocket_base.cycles / rocket_sched.cycles - 1
    boom_gain = boom_base.cycles / boom_sched.cycles - 1
    assert rocket_gain > 0.02            # paper: ~4%
    assert abs(boom_gain) < 0.03         # paper: ~0.3%
    assert rocket_gain > boom_gain
    # The gain is explained by the Backend (Core Bound) category.
    assert rocket_base.level2["core_bound"] \
        > rocket_sched.level2["core_bound"]


# ---------------------------------------------------------------------------
# Counter architectures on a real core run
# ---------------------------------------------------------------------------

def test_counter_architectures_agree_on_real_run():
    trace = build_trace("median", scale=SCALE)
    core = BoomCore(LARGE_BOOM)
    events = [e.name for e in new_events_for_core("boom")]
    scalar = ScalarCounterBank("boom", events)
    adders = AddWiresCounterBank("boom", events)
    distributed = DistributedCounterBank("boom", events)
    stream = SignalStream()
    core.run(trace, stream=stream)
    for bank in (scalar, adders, distributed):
        bank.count(stream)
    distributed.drain()
    for event in events:
        exact = scalar.read_event(event)
        assert adders.read_event(event) == exact
        software = distributed.read_event(event)
        assert software <= exact
        assert exact - software <= distributed.undercount_bound(event)


# ---------------------------------------------------------------------------
# Temporal TMA validation (Fig. 4's validation loop, Table VI)
# ---------------------------------------------------------------------------

def test_temporal_tma_close_to_counter_tma_on_boom():
    trace = build_trace("median", scale=SCALE)
    core = BoomCore(LARGE_BOOM)
    tracer = capture_trace(core, trace, boom_tma_bundle(
        LARGE_BOOM.decode_width, LARGE_BOOM.issue_width))
    signals = {f.name: tracer.signal(f.name)
               for f in tracer.bundle.fields}
    temporal = temporal_tma(signals, LARGE_BOOM.decode_width)

    counters = run_core("median", LARGE_BOOM, scale=SCALE)
    counter_tma = compute_tma(counters)
    deltas = validate_against_counters(temporal, counter_tma.level1)
    assert deltas["retiring"] < 0.02
    assert deltas["frontend"] < 0.05


def test_overlap_bound_is_small_fraction_of_slots():
    trace = build_trace("mergesort", scale=SCALE)
    tracer = capture_trace(BoomCore(LARGE_BOOM), trace, boom_tma_bundle(
        LARGE_BOOM.decode_width, LARGE_BOOM.issue_width))
    signals = {f.name: tracer.signal(f.name)
               for f in tracer.bundle.fields}
    report = analyze_overlap(signals, LARGE_BOOM.decode_width)
    assert report.overlap_fraction < 0.25
    assert report.overlap_slots <= report.total_slots


def test_recovery_cdf_modal_length_matches_model_constant():
    from repro.core.tma import BOOM_RECOVER_LENGTH

    trace = build_trace("qsort", scale=SCALE)
    tracer = capture_trace(BoomCore(LARGE_BOOM), trace, boom_tma_bundle(
        LARGE_BOOM.decode_width, LARGE_BOOM.issue_width))
    lengths = [s.length for s in
               recovery_sequences(tracer.signal("recovering"))]
    assert modal_length(lengths) == BOOM_RECOVER_LENGTH
