#!/usr/bin/env python
"""Chaos-campaign smoke (CI gate): faults injected, invariants held.

Runs the full ``repro-tma chaos`` campaign TWICE with the same fixed
seed and hard-fails unless:

- every end-state invariant held both times (zero job loss, exact
  dedup, merged sweep results bit-identical to the fault-free oracle,
  corrupted cache entries exactly quarantined, retries bounded);
- the chosen seed actually lit every seam (worker kills, disk faults
  including at least one corrupting flavor, client faults) — a chaos
  gate that injects nothing is a green light worth nothing;
- the model phase's clean control passed on every config, and every
  model fault class fired and was caught by the invariant checker;
- the two reports are byte-identical — the campaign's fault schedule
  and verdicts are a pure function of the seed, so any divergence
  means nondeterminism leaked into the harness itself.

Exits non-zero on the first violated expectation.
"""

import sys
import time

SEED = 1234


def fail(message):
    print(f"CHAOS SMOKE FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(condition, message):
    if not condition:
        fail(message)
    print(f"  ok: {message}")


def main():
    from repro.chaos.campaign import run_campaign
    from repro.chaos.model import MODEL_FAULTS

    started = time.time()
    print(f"chaos campaign, run 1 (seed={SEED})...")
    first = run_campaign(seed=SEED)
    print(first.render())
    print(f"chaos campaign, run 2 (seed={SEED})...")
    second = run_campaign(seed=SEED)

    check(first.passed, f"run 1 held every invariant "
                        f"(violations: {first.violations})")
    check(second.passed, f"run 2 held every invariant "
                         f"(violations: {second.violations})")

    sweep = first.sweep
    check(sweep.get("worker_kills_planned", 0) > 0,
          f"worker kills injected "
          f"({sweep.get('worker_kills_planned')} planned)")
    check(sweep.get("disk_faults_planned", 0) > 0,
          f"disk faults injected "
          f"({sweep.get('disk_faults_planned')} planned)")
    check(sweep.get("corrupt_entries_planned", 0) > 0,
          f"corrupting disk flavors drawn "
          f"({sweep.get('corrupt_entries_planned')} entries)")
    check(first.service.get("client_faults_planned", 0) > 0,
          f"client connection faults injected "
          f"({first.service.get('client_faults_planned')} planned)")

    model = first.model
    for config in model.get("configs", []):
        check(model["clean"].get(config),
              f"model clean control passed on {config}")
    for kind in MODEL_FAULTS:
        trials = [trial for trial in model.get("trials", [])
                  if trial["kind"] == kind]
        check(len(trials) == len(model.get("configs", [])) and all(
                  trial["injections"] > 0 and trial["caught"]
                  for trial in trials),
              f"{kind} fired and was caught on every config "
              f"({[trial['error'] for trial in trials]})")

    check(first.to_json() == second.to_json(),
          "reports byte-identical across runs (deterministic campaign)")

    print(f"\nCHAOS SMOKE PASS in {time.time() - started:.1f}s — "
          f"{sweep.get('pairs')} pairs × 3 sweeps, "
          f"{len(model.get('trials', []))} model faults, "
          f"{first.service.get('submissions')} service submissions, "
          f"seed {SEED} reproduced exactly")


if __name__ == "__main__":
    main()
