#!/usr/bin/env python
"""End-to-end smoke of the multicore interference subsystem (CI gate).

Two halves:

1. **Solo-equivalence oracle** — a scenario with one active core (idle
   neighbor) routed through the full shared-uncore + turnstile stack
   must be bit-identical to the single-core pipeline for a basket of
   registry workloads on both Rocket and BOOM, with exactly zero
   neighbor-induced attribution.
2. **Scenario registry sweep** — every named scenario runs at small
   scale and must satisfy the attribution invariants: level-1 TMA slots
   sum to 1.0, ``self + neighbor == mem_bound`` exactly per core, and
   repeated runs are bit-identical (lockstep determinism).

Exits non-zero on the first violated expectation.
"""

import os
import sys
import tempfile

SCALE = 0.1
ORACLE_PAIRS = (
    ("median", "rocket"),
    ("vvadd", "rocket"),
    ("qsort", "rocket"),
    ("towers", "rocket"),
    ("mm", "rocket"),
    ("spmv", "large-boom"),
    ("mergesort", "large-boom"),
    ("multiply", "large-boom"),
    ("dhrystone", "large-boom"),
    ("coremark", "large-boom"),
)


def fail(message):
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(condition, message):
    if not condition:
        fail(message)
    print(f"  ok: {message}")


def result_digest(result):
    from dataclasses import astuple

    return (
        result.cycles,
        result.instret,
        astuple(result.l1i_stats),
        astuple(result.l1d_stats),
        astuple(result.l2_stats),
        astuple(result.predictor_stats),
    )


def core_digest(core):
    return (
        result_digest(core.result),
        tuple(sorted(core.tma.level1.items())),
        tuple(sorted(core.tma.level2.items())),
        core.attribution.to_payload()["self"],
        core.attribution.to_payload()["neighbor_induced"],
        core.uncore.to_payload(),
    )


def main():
    os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="mc-smoke-")
    from repro.multicore import (CoreSlot, Scenario, get_scenario,
                                 run_scenario, scenario_names)
    from repro.tools.tma_tool import run_core
    from repro.cores import config_by_name

    print("multicore smoke")

    print("solo-equivalence oracle:")
    for workload, config_name in ORACLE_PAIRS:
        scenario = Scenario(
            name=f"solo-{workload}", description="oracle",
            slots=(CoreSlot(workload, config_name),
                   CoreSlot("idle", "rocket")),
            scale=SCALE)
        lockstep = run_scenario(scenario, force_lockstep=True).core_at(0)
        solo = run_core(workload, config_by_name(config_name),
                        scale=SCALE, use_cache=False)
        check(result_digest(lockstep.result) == result_digest(solo),
              f"{workload}@{config_name} lockstep == solo")
        check(lockstep.attribution.neighbor_share == 0.0,
              f"{workload}@{config_name} idle neighbor -> "
              f"neighbor_share == 0.0")

    print("scenario registry invariants:")
    for name in scenario_names():
        scenario = get_scenario(name).with_overrides(scale=SCALE)
        first = run_scenario(scenario)
        again = run_scenario(scenario)
        check([core_digest(c) for c in first.cores]
              == [core_digest(c) for c in again.cores],
              f"{name}: repeated runs bit-identical")
        for core in first.cores:
            level1_sum = sum(core.tma.level1.values())
            check(abs(level1_sum - 1.0) < 1e-9,
                  f"{name} core {core.index}: level-1 sums to 1.0")
            attribution = core.attribution
            check(attribution.self_share + attribution.neighbor_share
                  == attribution.mem_bound,
                  f"{name} core {core.index}: "
                  f"self + neighbor == mem_bound exactly")
    print("SMOKE PASS")


if __name__ == "__main__":
    main()
