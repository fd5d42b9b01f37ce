#!/usr/bin/env python3
"""Phase profiling with windowed temporal TMA (§IV-C's event windows).

Whole-run TMA hides phases; the trace does not.  This example captures a
full per-cycle trace of a workload on BOOM, splits it into fixed windows,
classifies each window with the temporal TMA model, and renders the
phase profile as aligned sparklines — plus an AutoCounter IPC time
series over the same run.

Usage::

    python examples/phase_profile.py [workload] [window]

Try ``mergesort`` (alternating merge/copy phases) or ``memcpy`` (a cold
streaming phase after a tiny warm-up).
"""

import sys

from repro.cores import BoomCore, LARGE_BOOM, SignalStream
from repro.tools.textplot import percent_axis, sparkline, stacked_series
from repro.trace import (AutoCounter, CounterAnnotation, CycleTracer,
                         boom_tma_bundle, windowed_tma)
from repro.workloads import build_trace, workload_names


def main() -> int:
    workload = sys.argv[1] if len(sys.argv) > 1 else "mergesort"
    window = int(sys.argv[2]) if len(sys.argv) > 2 else 2048
    if workload not in workload_names():
        print(f"unknown workload {workload!r}")
        return 1

    bundle = boom_tma_bundle(LARGE_BOOM.decode_width,
                             LARGE_BOOM.issue_width)
    stream = SignalStream()
    BoomCore(LARGE_BOOM).run(build_trace(workload), stream=stream)
    ipc_counter = AutoCounter([CounterAnnotation("uops_retired")],
                              readout_interval=window)
    ipc_counter.count(stream)
    tracer = CycleTracer(bundle)
    tracer.record(stream)
    signals = {f.name: tracer.signal(f.name) for f in bundle.fields}

    profiles = windowed_tma(signals, LARGE_BOOM.decode_width,
                            window=window)
    classes = ("retiring", "bad_speculation", "frontend", "backend")
    series = {name: [p.fractions()[name] for p in profiles]
              for name in classes}

    print(f"{workload} on LargeBOOMV3: {len(tracer)} cycles, "
          f"{len(profiles)} windows of {window} cycles")
    print()
    print("TMA phase profile (each column = one window, full height = "
          "100% of slots):")
    print(stacked_series(series))
    label_width = max(len(name) for name in classes) + 2
    print(" " * label_width + percent_axis(len(profiles)))
    print()

    deltas = ipc_counter.window_deltas("uops_retired")
    ipc = [delta / window for delta in deltas]
    print("IPC per window (AutoCounter readouts):")
    print("  " + sparkline(ipc, maximum=LARGE_BOOM.decode_width))
    if ipc:
        print(f"  min {min(ipc):.2f}  max {max(ipc):.2f}  "
              f"mean {sum(ipc) / len(ipc):.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
