"""Unit tests for time-multiplexed counter sampling."""

import pytest

from repro.cores import LARGE_BOOM, SignalStream
from repro.pmu import MultiplexedCsrFile, measure_sampled


def cycles(signals) -> SignalStream:
    """A recorded stream of *signals*, one mapping per cycle from 0."""
    return SignalStream.from_cycles(enumerate(signals))


def test_constructor_validation():
    with pytest.raises(ValueError):
        MultiplexedCsrFile("boom", [], interval=10)
    with pytest.raises(ValueError):
        MultiplexedCsrFile("boom", [["cycles"]], interval=0)
    with pytest.raises(ValueError):
        MultiplexedCsrFile("boom", [["not_real"]])


def test_single_group_is_exact():
    mux = MultiplexedCsrFile("boom", [["uops_retired"]], interval=10)
    mux.count(cycles([{"uops_retired": 0b11}] * 100))
    assert mux.raw_count("uops_retired") == 200
    assert mux.estimated_count("uops_retired") == pytest.approx(200)
    assert mux.coverage("uops_retired") == pytest.approx(1.0)


def test_rotation_splits_time_evenly():
    groups = [["uops_retired"], ["fetch_bubbles"]]
    mux = MultiplexedCsrFile("boom", groups, interval=10)
    mux.count(cycles([{"uops_retired": 1, "fetch_bubbles": 1}] * 200))
    assert mux.coverage("uops_retired") == pytest.approx(0.5)
    assert mux.coverage("fetch_bubbles") == pytest.approx(0.5)
    # Uniform signals extrapolate exactly.
    assert mux.estimated_count("uops_retired") == pytest.approx(200)
    assert mux.estimated_count("fetch_bubbles") == pytest.approx(200)


def test_bursty_signal_can_be_missed():
    """A burst entirely inside the other group's slice is invisible."""
    groups = [["uops_retired"], ["fetch_bubbles"]]
    mux = MultiplexedCsrFile("boom", groups, interval=10)
    # A burst in group 0's first slice.
    mux.count(cycles({"fetch_bubbles": 0b111} if 2 <= cycle < 8 else {}
                     for cycle in range(40)))
    assert mux.raw_count("fetch_bubbles") == 0
    assert mux.estimated_count("fetch_bubbles") == 0.0


def test_classic_mode_counts_once_per_cycle():
    mux = MultiplexedCsrFile("boom", [["uops_issued"]], interval=10,
                             increment_mode="classic")
    mux.count(cycles([{"uops_issued": 0b11111}] * 10))
    assert mux.raw_count("uops_issued") == 10


def test_unknown_event_lookup_raises():
    mux = MultiplexedCsrFile("boom", [["cycles"]])
    with pytest.raises(KeyError):
        mux.estimated_count("uops_issued")
    with pytest.raises(KeyError):
        mux.coverage("uops_issued")


def test_measure_sampled_end_to_end():
    comparisons = measure_sampled(
        "vvadd", LARGE_BOOM,
        [["uops_issued", "uops_retired"], ["fetch_bubbles"]],
        interval=100, scale=0.2)
    by_event = {c.event: c for c in comparisons}
    assert set(by_event) == {"uops_issued", "uops_retired",
                             "fetch_bubbles"}
    retired = by_event["uops_retired"]
    assert retired.exact > 0
    assert abs(retired.relative_error) < 0.25
    assert 0.3 < retired.coverage < 0.7
