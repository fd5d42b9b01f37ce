"""Each core's one cycle loop must reproduce the golden digests.

Every core has a single cycle loop over ``ColumnarTrace`` columns.  The
oracle it answers to is ``tests/golden_digests.json``: digests of the
full ``CoreResult`` surface (event totals, per-lane splits, cycles,
instret, cache/predictor statistics, extras) plus TMA level 1 and 2 for
every registry workload on Rocket and three BOOM sizes.  The digests
were generated before the object-walking loops were deleted, and
matched those loops bit for bit.  These tests also pin how ``run``
treats ``DynamicTrace`` inputs and the per-run state reset that makes
core instances safely reusable.

The functional executor is pinned to ``compiled`` where a test needs a
``ColumnarTrace`` even when the surrounding suite runs under
``REPRO_EXEC_ENGINE=interpreted``.
"""

import dataclasses

import pytest

from repro.cores import LARGE_BOOM, MEDIUM_BOOM, ROCKET, SMALL_BOOM
from repro.cores.boom import BoomCore
from repro.isa import execute
from repro.isa.columnar import ColumnarTrace
from repro.pmu.harness import make_core
from repro.workloads import build_program, build_trace, workload_names

from tests.make_golden_digests import (SCALE, SignalStreamRecorder,
                                       config_key, digest, load_golden,
                                       result_document)

CONFIGS = [ROCKET, SMALL_BOOM, MEDIUM_BOOM, LARGE_BOOM]
GOLDEN = load_golden()


def golden_core(workload, config):
    return GOLDEN[f"core/{workload}/{config_key(config)}"]


def result_digest(result):
    return (
        result.events,
        result.lane_events,
        result.cycles,
        result.instret,
        dataclasses.astuple(result.l1i_stats),
        dataclasses.astuple(result.l1d_stats),
        dataclasses.astuple(result.l2_stats),
        dataclasses.astuple(result.predictor_stats),
        result.extra,
    )


# ----------------------------------------------------------------------
# golden digests across the registry


@pytest.mark.parametrize("workload", workload_names())
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_columnar_matches_objects(workload, config):
    trace = build_trace(workload, scale=SCALE, engine="compiled")
    assert isinstance(trace, ColumnarTrace)
    result = make_core(config).run(trace)
    assert digest(result_document(result)) == golden_core(workload, config)


# ----------------------------------------------------------------------
# trace inputs


def test_unknown_engine_rejected():
    """``run`` takes no engine selector: there is one loop."""
    trace = build_trace("vvadd", scale=SCALE, engine="compiled")
    with pytest.raises(TypeError):
        make_core(ROCKET).run(trace, engine="objects")


def test_default_engine_is_columnar(monkeypatch):
    """A ``DynamicTrace`` is converted once; a columnar one is not."""
    conversions = []
    real = ColumnarTrace.from_dynamic.__func__

    def counting(cls, trace):
        conversions.append(trace)
        return real(cls, trace)

    monkeypatch.setattr(ColumnarTrace, "from_dynamic",
                        classmethod(counting))
    make_core(ROCKET).run(build_trace("vvadd", scale=SCALE,
                                      engine="compiled"))
    assert conversions == []
    dynamic = execute(build_program("vvadd", scale=SCALE))
    make_core(ROCKET).run(dynamic)
    assert len(conversions) == 1 and conversions[0] is dynamic


@pytest.mark.parametrize("config", [ROCKET, SMALL_BOOM],
                         ids=lambda c: c.name)
def test_dynamic_trace_falls_back_to_objects(config):
    """A ``DynamicTrace`` input runs through ``from_dynamic`` exactly."""
    dynamic_trace = execute(build_program("median", scale=SCALE))
    assert not isinstance(dynamic_trace, ColumnarTrace)
    result = make_core(config).run(dynamic_trace)
    assert digest(result_document(result)) == golden_core("median", config)


# ----------------------------------------------------------------------
# per-run state reset / instance reuse


def test_boom_run_resets_per_run_state():
    """Stale per-run state must not leak into a later ``run()``.

    The machine-clear count and the store-set training are per-run;
    the caches, TLBs, and predictor deliberately stay warm.  A core
    poisoned with stale per-run state must produce the exact result of
    a pristine core.
    """
    trace = build_trace("qsort", scale=SCALE, engine="compiled")
    clean = BoomCore(SMALL_BOOM).run(trace)
    poisoned = BoomCore(SMALL_BOOM)
    poisoned.machine_clears = 999
    poisoned._trained_loads.add(0x80000123)
    assert result_digest(poisoned.run(trace)) == result_digest(clean)


@pytest.mark.parametrize("config", [SMALL_BOOM, LARGE_BOOM],
                         ids=lambda c: c.name)
def test_reused_core_engines_stay_identical(config):
    """Back-to-back runs on one instance do not depend on observers.

    Warm cache/predictor state evolves across runs; a reused core with
    an observer attached and a reused core without one must see the
    identical evolution, so the two agree run by run.
    """
    core_observed = BoomCore(config)
    core_observed.add_observer(SignalStreamRecorder())
    core_plain = BoomCore(config)
    for workload in ("qsort", "median", "qsort"):
        trace = build_trace(workload, scale=SCALE, engine="compiled")
        observed = core_observed.run(trace)
        plain = core_plain.run(trace)
        assert result_digest(observed) == result_digest(plain)
