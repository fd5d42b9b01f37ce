"""Tier-2: the sweeps' plain cycle loop vs. a recorded one.

Not a paper figure — this bench guards the evaluation *infrastructure*:
recording the signal stream must leave the core loop's results
unchanged.
"""


from repro.cores import ROCKET, SignalStream
from repro.pmu.harness import make_core
from repro.workloads import build_trace

WORKLOADS = ["dhrystone", "median", "qsort", "towers"]
SCALE = 0.5


def test_plain_core_loop(benchmark, artifact):
    """The sweeps run the plain cycle loop; recording must not change it."""
    traces = {name: build_trace(name, scale=SCALE) for name in WORKLOADS}

    def observed():
        return [make_core(ROCKET).run(traces[name], stream=SignalStream())
                for name in WORKLOADS]

    def plain():
        return [make_core(ROCKET).run(traces[n]) for n in WORKLOADS]

    plain_results = benchmark(plain)
    for plain_result, observed_result in zip(plain_results, observed()):
        assert plain_result.events == observed_result.events
        assert plain_result.cycles == observed_result.cycles
        assert plain_result.instret == observed_result.instret
    artifact("sweep_recording_equivalence",
             "plain loop == recorded loop on "
             + ", ".join(WORKLOADS) + f" (scale {SCALE})")
