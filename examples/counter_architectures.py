#!/usr/bin/env python3
"""Counter architectures (Fig. 6) and the perf harness (§IV-D).

1. Counts one recorded BOOM run with all three counter implementations
   — scalar, add-wires, and distributed — plus a pre-Icicle OR counter,
   and compares the values software reads back.
2. Shows the four-step CSR programming sequence the harness generates
   for the simulated-Linux (OpenSBI) boot path, then measures a
   workload through the full PMU stack.

Usage::

    python examples/counter_architectures.py
"""

from repro.cores import BoomCore, LARGE_BOOM, SignalStream
from repro.pmu import (AddWiresCounterBank, ClassicOrCounter,
                       DistributedCounterBank, PerfHarness,
                       ScalarCounterBank, new_events_for_core)
from repro.workloads import build_trace


def compare_architectures() -> None:
    events = [event.name for event in new_events_for_core("boom")]
    trace = build_trace("coremark")

    stream = SignalStream()
    BoomCore(LARGE_BOOM).run(trace, stream=stream)
    scalar = ScalarCounterBank("boom", events)
    adders = AddWiresCounterBank("boom", events)
    distributed = DistributedCounterBank("boom", events)
    classic = ClassicOrCounter("boom", ["uops_issued"])
    for bank in (scalar, adders, distributed, classic):
        bank.count(stream)
    distributed.drain()

    print("coremark @ LargeBOOMV3 — software-visible counter values")
    print(f"{'event':<16s}{'scalar':>9s}{'adders':>9s}{'distrib':>9s}"
          f"{'undercnt':>9s}")
    for event in events:
        print(f"{event:<16s}{scalar.read_event(event):>9d}"
              f"{adders.read_event(event):>9d}"
              f"{distributed.read_event(event):>9d}"
              f"{distributed.undercount(event):>9d}")
    print()
    print("pre-Icicle OR counter for uops_issued:", classic.read(),
          f"(true count {scalar.read_event('uops_issued')}; a classic "
          "counter can only increment once per cycle)")


def show_harness() -> None:
    harness = PerfHarness(core="boom", increment_mode="adders",
                          mode="linux")
    events = ["uops_issued", "uops_retired", "fetch_bubbles",
              "recovering", "fence_retired", "icache_blocked",
              "dcache_blocked"]
    assignment = harness.plan(events)[0]
    print()
    print("OpenSBI boot sequence generated by the harness "
          "(steps 1-4 of §IV-D):")
    print(harness.boot_assembly(assignment))
    print("FireMarshal-style wrapper command:")
    print(" ", harness.firemarshal_command("coremark", events))
    print()
    measurement = harness.measure("coremark", LARGE_BOOM,
                                  event_names=events)
    print(f"measured through the PMU: cycles={measurement.cycles} "
          f"instret={measurement.instret} IPC={measurement.ipc:.3f}")
    for name, value in measurement.events.items():
        print(f"  {name:<16s}{value}")


def main() -> int:
    compare_architectures()
    show_harness()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
