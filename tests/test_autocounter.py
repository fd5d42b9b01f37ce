"""Unit tests for the AutoCounter out-of-band tool."""

import pytest

from repro.cores import BoomCore, LARGE_BOOM, ROCKET, RocketCore, SignalStream
from repro.trace import AutoCounter, CounterAnnotation
from repro.workloads import build_trace


def test_annotation_validation():
    with pytest.raises(ValueError):
        CounterAnnotation("x", reduce="sum")
    with pytest.raises(ValueError):
        AutoCounter([])
    with pytest.raises(ValueError):
        AutoCounter([CounterAnnotation("a"), CounterAnnotation("a")])
    with pytest.raises(ValueError):
        AutoCounter([CounterAnnotation("a")], readout_interval=0)


def test_popcount_vs_or_reduction():
    counter = AutoCounter([
        CounterAnnotation("sig", label="events", reduce="popcount"),
        CounterAnnotation("sig", label="cycles", reduce="or"),
    ])
    counter.count(SignalStream.from_cycles(
        (cycle, {"sig": mask})
        for cycle, mask in enumerate([0b111, 0b000, 0b001])))
    assert counter.total("events") == 4
    assert counter.total("cycles") == 2
    assert counter.rate("cycles") == pytest.approx(2 / 3)


def test_periodic_readout_and_deltas():
    counter = AutoCounter([CounterAnnotation("sig")], readout_interval=4)
    counter.count(SignalStream.from_cycles(
        (cycle, {"sig": 1 if cycle < 6 else 0}) for cycle in range(12)))
    assert [s.cycle for s in counter.samples] == [3, 7, 11]
    assert counter.window_deltas("sig") == [4, 2, 0]


def test_csv_output():
    counter = AutoCounter([CounterAnnotation("a"),
                           CounterAnnotation("b")], readout_interval=2)
    counter.count(SignalStream.from_cycles(
        (cycle, {"a": 1, "b": cycle & 1}) for cycle in range(4)))
    lines = counter.to_csv().strip().splitlines()
    assert lines[0] == "cycle,a,b"
    assert lines[1] == "1,2,1"
    assert lines[2] == "3,4,2"


def test_autocounter_on_rocket_matches_pmu_events():
    """Annotating a PMU event must reproduce the core's own total."""
    trace = build_trace("median", scale=0.3)
    core = RocketCore(ROCKET)
    counter = AutoCounter([
        CounterAnnotation("instr_retired"),
        CounterAnnotation("fetch_bubbles"),
        CounterAnnotation("ibuf_valid", label="ibuf_valid_cycles",
                          reduce="or"),
    ])
    stream = SignalStream()
    result = core.run(trace, stream=stream)
    counter.count(stream)
    assert counter.total("instr_retired") == result.event("instr_retired")
    assert counter.total("fetch_bubbles") == result.event("fetch_bubbles")
    # The raw handshake tap is visible even though it is not a PMU event.
    assert counter.total("ibuf_valid_cycles") > 0
    assert counter.cycles == result.cycles


def test_autocounter_time_series_on_boom():
    trace = build_trace("vvadd", scale=0.2)
    core = BoomCore(LARGE_BOOM)
    counter = AutoCounter([CounterAnnotation("uops_retired")],
                          readout_interval=256)
    stream = SignalStream()
    result = core.run(trace, stream=stream)
    counter.count(stream)
    assert counter.samples, "expected periodic readouts"
    # Cumulative samples are monotone and end at (close to) the total.
    values = [s.values["uops_retired"] for s in counter.samples]
    assert values == sorted(values)
    assert values[-1] <= result.event("uops_retired")
    assert sum(counter.window_deltas("uops_retired")) == values[-1]
