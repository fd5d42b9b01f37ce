"""Observers and fault hooks ride the one cycle loop without changing it.

With an observer attached, each core's cycle loop hands it the
``{event: lane_mask}`` record of every cycle.  These tests pin that
per-cycle stream against ``tests/golden_digests.json`` (recorded on
the per-cycle object loops before they were deleted) for both cores
across a workload cross-section, and pin that attaching an observer
never changes the run's result.
"""

import pytest

from repro.cores import LARGE_BOOM, ROCKET, SMALL_BOOM
from repro.pmu.harness import make_core
from repro.workloads import build_trace

from tests.make_golden_digests import (STREAM_WORKLOADS, SignalStreamRecorder,
                                       config_key, digest, load_golden,
                                       stream_doc)

WORKLOADS = list(STREAM_WORKLOADS)
SCALE = 0.3
GOLDEN = load_golden()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("config", [ROCKET, SMALL_BOOM, LARGE_BOOM],
                         ids=lambda c: c.name)
def test_signal_stream_matches_golden(workload, config):
    key = config_key(config)
    assert digest(stream_doc(workload, key)) == \
        GOLDEN[f"signals/{workload}/{key}"]


@pytest.mark.parametrize("config", [ROCKET, SMALL_BOOM],
                         ids=lambda c: c.name)
def test_auto_path_is_fast_only_when_traceless(config):
    """An observer sees every cycle and changes nothing it observes."""
    trace = build_trace("median", scale=SCALE)
    plain = make_core(config).run(trace)

    observed_core = make_core(config)
    recorder = SignalStreamRecorder()
    observed_core.add_observer(recorder)
    observed = observed_core.run(trace)
    assert recorder.cycles == observed.cycles
    assert observed.events == plain.events
    assert observed.lane_events == plain.lane_events
    assert observed.cycles == plain.cycles
