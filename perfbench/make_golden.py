"""Regenerate ``golden.json`` from the current simulator.

Usage (from the repository root)::

    python3 perfbench/make_golden.py

Runs every op of every workload once (``service-gateway``: every round
scale) in recording mode, plus a serial full run of each huge-tier
(workload, config) pair whose TMA level 1 is the reference for the
sampled-error figure.  An op whose output differs between two runs of
the same op (a store hit against the execution it repeats, say) aborts
the script.  Regenerate only when a change is meant to alter simulated
results, and say so in the change.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from digests import GOLDEN_PATH  # noqa: E402
from workloads import (WORKLOADS, Context, HugeWindowed,  # noqa: E402
                       prepare_process)


def huge_reference() -> dict:
    from repro.core.tma import compute_tma
    from repro.cores.batch import make_core
    from repro.cores.configs import config_by_name
    from repro.workloads import build_trace

    reference = {}
    for workload in HugeWindowed.WORKLOADS:
        trace = build_trace(workload, scale=HugeWindowed.SCALE)
        for config in HugeWindowed.CONFIGS:
            result = make_core(config_by_name(config)).run(trace)
            reference[f"{workload}/{config}"] = dict(
                compute_tma(result).level1)
    return reference


def main() -> int:
    work = HERE.parent / ".perfbench" / "make-golden"
    shutil.rmtree(work, ignore_errors=True)
    record: dict = {}
    prepare_process()
    try:
        for name, cls in WORKLOADS.items():
            workload = cls()
            ctx = Context(work / name, None, record=record)
            workload.setup(ctx)
            try:
                rounds = getattr(workload, "SCALES", (None,))
                for index in range(len(rounds)):
                    _, records = workload.run_round(
                        ctx, random.Random(index), index)
                    for op in records:
                        if not op.ok:
                            print(f"{name} {op.key}: {op.error}",
                                  file=sys.stderr)
                            return 1
            finally:
                workload.teardown(ctx)
            print(f"{name}: {len(record.get(name, {}))} digests")
        record["huge-reference"] = huge_reference()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
