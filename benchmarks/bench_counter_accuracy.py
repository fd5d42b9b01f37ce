"""Counter-architecture accuracy (§IV-B example + artifact comparison).

The artifact appendix compares AddWires counter values against
DistributedCounters (the latter needing x2^N post-processing).  This
bench reproduces that comparison on real core runs and re-derives the
§IV-B worst-case bound: for the smallest benchmark's fetch-bubble count
(paper: 929), the distributed undercount stays within ~1.28%.
"""

import pytest

from repro.cores import BoomCore, LARGE_BOOM, SignalStream
from repro.pmu import (AddWiresCounterBank, ClassicOrCounter,
                       DistributedCounterBank, ScalarCounterBank,
                       new_events_for_core)
from repro.workloads import build_trace

EVENTS = [event.name for event in new_events_for_core("boom")]


@pytest.fixture(scope="module")
def counter_banks():
    """One recorded core run counted by every architecture."""
    stream = SignalStream()
    BoomCore(LARGE_BOOM).run(build_trace("median", scale=0.5),
                             stream=stream)
    scalar = ScalarCounterBank("boom", EVENTS)
    adders = AddWiresCounterBank("boom", EVENTS)
    distributed = DistributedCounterBank("boom", EVENTS)
    classic = ClassicOrCounter("boom", ["fetch_bubbles"])
    for bank in (scalar, adders, distributed, classic):
        bank.count(stream)
    distributed.drain()
    return scalar, adders, distributed, classic


def test_counter_value_comparison(benchmark, counter_banks, artifact):
    scalar, adders, distributed, classic = counter_banks

    def compare():
        rows = []
        for event in EVENTS:
            exact = scalar.read_event(event)
            rows.append((event, exact, adders.read_event(event),
                         distributed.read_event(event),
                         distributed.undercount(event)))
        return rows

    rows = benchmark(compare)
    lines = ["Counter-architecture comparison (median @ LargeBOOMV3)",
             f"{'event':<16s}{'scalar':>9s}{'adders':>9s}"
             f"{'distrib':>9s}{'undercnt':>9s}"]
    for event, exact, add, dist, under in rows:
        lines.append(f"{event:<16s}{exact:>9d}{add:>9d}{dist:>9d}"
                     f"{under:>9d}")
    lines.append(f"classic OR counter for fetch_bubbles: "
                 f"{classic.read()} (undercounts concurrent lanes)")
    artifact("counter_architecture_comparison", "\n".join(lines))

    for event, exact, add, dist, under in rows:
        assert add == exact                      # AddWires is exact
        assert dist <= exact                     # distributed never over
        assert under <= distributed.undercount_bound(event)
    bubbles = scalar.read_event("fetch_bubbles")
    if bubbles:
        assert classic.read() <= bubbles


def test_undercount_error_bound_paper_example(counter_banks, artifact):
    """§IV-B: worst case 12/(929+12) = 1.28% for the smallest bench."""
    scalar, _, distributed, _ = counter_banks
    lines = ["Distributed-counter relative undercount after drain:"]
    for event in EVENTS:
        exact = scalar.read_event(event)
        if exact < 100:
            continue
        error = distributed.undercount(event) / exact
        bound = distributed.undercount_bound(event) / exact
        lines.append(f"  {event:<16s}{100 * error:7.3f}% "
                     f"(bound {100 * bound:.3f}%)")
        if exact >= 929:
            assert error <= 12 / (929 + 12) + 0.005
    artifact("counter_undercount_bound", "\n".join(lines))
