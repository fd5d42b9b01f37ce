"""Tier-2: parallel sweep engine vs. the serial resilient runner.

Not a paper figure — this bench guards the evaluation *infrastructure*:
the process-pool sweep engine must merge to exactly the serial runner's
results, and an attached observer must leave the core loop's results
unchanged.
"""

import pytest

from repro.cores import ROCKET
from repro.pmu.harness import PerfHarness, make_core
from repro.reliability.runner import ResilientRunner
from repro.tools.parallel import ParallelSweepRunner
from repro.workloads import build_trace

WORKLOADS = ["dhrystone", "median", "qsort", "towers"]
SCALE = 0.5


def _outcome_digest(outcome):
    """Hashable identity of one sweep outcome for equivalence checks."""
    measurement = outcome.measurement
    measured = None if measurement is None else (
        tuple(sorted(measurement.events.items())),
        measurement.cycles, measurement.instret, measurement.passes)
    return (outcome.workload, outcome.config_name, outcome.status,
            outcome.attempts, measured)


def _make_runner():
    return ResilientRunner(harness=PerfHarness(core="rocket"),
                           scale=SCALE, use_cache=False)


@pytest.fixture(scope="module")
def serial_report():
    return ParallelSweepRunner(runner=_make_runner(),
                               max_workers=1).run_grid(WORKLOADS, [ROCKET])


def test_parallel_sweep_matches_serial(benchmark, serial_report, artifact):
    parallel = benchmark(
        lambda: ParallelSweepRunner(runner=_make_runner(),
                                    max_workers=4).run_grid(WORKLOADS,
                                                            [ROCKET]))
    assert [_outcome_digest(o) for o in parallel.outcomes] \
        == [_outcome_digest(o) for o in serial_report.outcomes]
    artifact("sweep_parallel_engine", parallel.summary())


def test_serial_sweep_baseline(benchmark):
    report = benchmark(
        lambda: ParallelSweepRunner(runner=_make_runner(),
                                    max_workers=1).run_grid(WORKLOADS,
                                                            [ROCKET]))
    assert all(o.ok for o in report.outcomes)


def test_plain_core_loop(benchmark, artifact):
    """The sweeps run the plain cycle loop; observers must not change it."""
    traces = {name: build_trace(name, scale=SCALE) for name in WORKLOADS}

    class _Count:
        cycles = 0

        def on_cycle(self, cycle, signals):
            self.cycles += 1

    def observed():
        results = []
        for name in WORKLOADS:
            core = make_core(ROCKET)
            core.add_observer(_Count())
            results.append(core.run(traces[name]))
        return results

    def plain():
        return [make_core(ROCKET).run(traces[n]) for n in WORKLOADS]

    plain_results = benchmark(plain)
    for plain_result, observed_result in zip(plain_results, observed()):
        assert plain_result.events == observed_result.events
        assert plain_result.cycles == observed_result.cycles
        assert plain_result.instret == observed_result.instret
    artifact("sweep_observer_equivalence",
             "plain loop == observed loop on "
             + ", ".join(WORKLOADS) + f" (scale {SCALE})")
