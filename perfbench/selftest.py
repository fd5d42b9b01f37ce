"""Self-test of the benchmark's per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs a few ``sweep-grid`` ops traced, then again with a fixed delay
injected into the benchmark's own wrapper around one layer.  The
per-layer self times must charge the added time to that layer: at
least 80% of the injected total lands on it, and no other layer grows
by more than a quarter of it.  Each layer in ``LAYERS`` is tested in
turn.  Exits 1 when any attribution is wrong.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from spans import Tracer, self_times  # noqa: E402
from workloads import (Context, SweepGrid, clear_trace_tiers,  # noqa: E402
                       prepare_process)

#: Layers the delay is injected into: the functional executor (nested
#: under the trace lookup), the descriptor compile (nested under the
#: batch engine) and the result-store write.
LAYERS = ("isa.exec", "cores.compile", "cache.store")
OPS = ("qsort", "rsort", "spmv", "towers", "vvadd")
DELAY_S = 0.05
REPEATS = 3


def traced_self_times(ctx: Context, workload: SweepGrid, delays, label):
    """Per-layer self seconds (minimum over repeats) and span counts."""
    best = {}
    counts = {}
    for repeat in range(REPEATS):
        ctx.fresh_cache_dir(f"{label}-{repeat}")
        tracer = Tracer(delays=delays).install()
        ctx.tracer = tracer
        try:
            for op in OPS:
                clear_trace_tiers()
                workload.run_op(ctx, op)
        finally:
            tracer.uninstall()
            ctx.tracer = None
        for layer, seconds in self_times(tracer.spans).items():
            best[layer] = min(best.get(layer, seconds), seconds)
        for span in tracer.spans:
            counts[span["name"]] = counts.get(span["name"], 0) + 1
    return best, {k: v // REPEATS for k, v in counts.items()}


def main() -> int:
    work = HERE.parent / ".perfbench" / f"selftest-{os.getpid()}"
    prepare_process()
    ctx = Context(work, None, record={})
    workload = SweepGrid()
    workload.setup(ctx)
    failures = 0
    try:
        base, _ = traced_self_times(ctx, workload, {}, "base")
        for layer in LAYERS:
            slow, counts = traced_self_times(ctx, workload,
                                             {layer: DELAY_S}, layer)
            injected = DELAY_S * counts.get(layer, 0)
            deltas = {name: slow.get(name, 0.0) - base.get(name, 0.0)
                      for name in set(base) | set(slow)}
            worst_other = max(
                (name for name in deltas if name != layer),
                key=lambda name: deltas[name])
            flagged = max(deltas, key=deltas.get)
            ok = (injected > 0 and flagged == layer
                  and deltas[layer] >= 0.8 * injected
                  and deltas[worst_other] <= 0.25 * injected)
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {layer}: injected "
                  f"{injected:.3f}s over {counts.get(layer, 0)} calls; "
                  f"attributed {deltas[layer]:.3f}s; largest other "
                  f"{worst_other} {deltas[worst_other]:+.3f}s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
