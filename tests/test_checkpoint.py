"""Tests for crash-safe sweep checkpoints and resume.

Covers the checkpoint file itself (atomicity, checksums, signature
guards), suite/grid resume bit-exactness, and
the end-to-end acceptance: SIGKILL a ``repro-tma suite`` run mid-sweep,
resume with ``--resume``, and get output identical to an uninterrupted
run.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core import to_json
from repro.cores import ROCKET
from repro.cores.batch import parse_grid
from repro.tools import cache
from repro.tools.checkpoint import (SweepCheckpoint, checkpoint_dir,
                                    grid_signature)
from repro.tools.tma_tool import run_grid, run_suite
from repro.workloads import trace_cache


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    trace_cache.clear_memory()
    yield tmp_path
    trace_cache.clear_memory()


# ---------------------------------------------------------------------------
# the checkpoint file
# ---------------------------------------------------------------------------

def test_record_load_round_trip():
    checkpoint = SweepCheckpoint(tag="t", signature="sig")
    assert checkpoint.load() == {}
    checkpoint.record("a:Rocket", {"value": 1})
    checkpoint.record_many({"b:Rocket": {"value": 2}})

    fresh = SweepCheckpoint(tag="t", signature="sig")
    assert fresh.load() == {"a:Rocket": {"value": 1},
                            "b:Rocket": {"value": 2}}
    assert fresh.completed_keys() == {"a:Rocket", "b:Rocket"}
    assert fresh.get("a:Rocket") == {"value": 1}
    assert fresh.get("missing") is None


def test_corrupt_checkpoint_is_ignored_wholesale():
    checkpoint = SweepCheckpoint(tag="t", signature="sig")
    checkpoint.record("a", {"value": 1})
    raw = checkpoint.path.read_text(encoding="utf-8")

    # Truncation.
    checkpoint.path.write_text(raw[: len(raw) // 2], encoding="utf-8")
    assert SweepCheckpoint(tag="t", signature="sig").load() == {}

    # Valid JSON, broken checksum.
    document = json.loads(raw)
    document["entries"]["a"] = {"value": 999}
    checkpoint.path.write_text(json.dumps(document), encoding="utf-8")
    assert SweepCheckpoint(tag="t", signature="sig").load() == {}


def test_signature_mismatch_discards_progress():
    checkpoint = SweepCheckpoint(tag="t", signature="grid-one")
    checkpoint.record("a", {"value": 1})
    assert SweepCheckpoint(tag="t", signature="grid-two").load() == {}
    assert SweepCheckpoint(tag="t", signature="grid-one").load() != {}


def test_clear_removes_the_file():
    checkpoint = SweepCheckpoint(tag="t", signature="sig")
    checkpoint.record("a", 1)
    assert checkpoint.path.exists()
    checkpoint.clear()
    assert not checkpoint.path.exists()
    assert SweepCheckpoint(tag="t", signature="sig").load() == {}


def test_checkpoint_survives_result_cache_prune():
    checkpoint = SweepCheckpoint(tag="t", signature="sig")
    checkpoint.record("a", {"value": 1})
    # An aggressive prune of the surrounding result cache must not be
    # able to evict sweep progress (checkpoints are not *.json entries).
    cache.prune(max_entries=0)
    assert SweepCheckpoint(tag="t", signature="sig").load() != {}
    assert checkpoint.path.parent == checkpoint_dir()


def test_grid_signature_distinguishes_grids():
    base = grid_signature(["a", "b"], ["Rocket"], 0.5)
    assert base == grid_signature(["b", "a"], ["Rocket"], 0.5)  # order-free
    assert base != grid_signature(["a"], ["Rocket"], 0.5)
    assert base != grid_signature(["a", "b"], ["Rocket"], 0.6)
    assert base != grid_signature(["a", "b"], ["Rocket"], 0.5, extra="x")


# ---------------------------------------------------------------------------
# suite + grid resume are bit-exact
# ---------------------------------------------------------------------------

def test_suite_resume_skips_completed_and_matches_uninterrupted():
    names = ["vvadd", "median", "towers"]
    signature = grid_signature(names, [ROCKET.name], 0.1)
    oracle = run_suite(names, ROCKET, scale=0.1)

    # A "killed" first run: only the first workload got checkpointed.
    partial = SweepCheckpoint(tag="suite", signature=signature)
    run_suite(names[:1], ROCKET, scale=0.1, checkpoint=partial)
    assert partial.completed_keys() == {f"vvadd:{ROCKET.name}"}

    resumed_checkpoint = SweepCheckpoint(tag="suite", signature=signature)
    resumed = run_suite(names, ROCKET, scale=0.1, use_cache=False,
                        checkpoint=resumed_checkpoint)
    assert to_json(resumed) == to_json(oracle)
    assert (resumed_checkpoint.completed_keys()
            == {f"{n}:{ROCKET.name}" for n in names})


def test_parallel_resume_restores_recorded_pairs():
    workloads = ["vvadd", "median"]
    points = parse_grid("rocket,small-boom")
    signature = grid_signature(workloads, [p.key for p in points], 0.1)

    full = run_grid(workloads, points, scale=0.1, use_cache=False,
                    workers=2)
    assert [batch.stats.mode for batch in full] == ["pool", "pool"]

    # Simulate a sweep killed after two pairs: checkpoint holds them.
    checkpoint = SweepCheckpoint(tag="sweep", signature=signature)
    checkpoint.record_many({
        f"vvadd:{point.key}": cache.serialize_result(result)
        for point, result in zip(points, full[0].results)})

    resumed = run_grid(
        workloads, points, scale=0.1, use_cache=False, workers=2,
        checkpoint=SweepCheckpoint(tag="sweep", signature=signature))
    assert [batch.stats.restored for batch in resumed] == [2, 0]
    assert [batch.stats.executed for batch in resumed] == [0, 2]
    assert ([cache.serialize_result(r) for b in resumed for r in b.results]
            == [cache.serialize_result(r) for b in full for r in b.results])


def test_parallel_resume_ignores_failed_entries():
    # An entry that fails to decode is re-run, never restored.
    points = parse_grid("rocket")
    signature = grid_signature(["vvadd"], ["rocket"], 0.1)
    checkpoint = SweepCheckpoint(tag="sweep", signature=signature)
    checkpoint.record("vvadd:rocket", {"status": "failed",
                                       "error": "injected"})

    [batch] = run_grid(
        ["vvadd"], points, scale=0.1, use_cache=False, workers=2,
        checkpoint=SweepCheckpoint(tag="sweep", signature=signature))
    assert batch.stats.restored == 0
    assert batch.stats.executed == 1
    oracle = run_grid(["vvadd"], points, scale=0.1, use_cache=False,
                      workers=1)
    assert (cache.serialize_result(batch.results[0])
            == cache.serialize_result(oracle[0].results[0]))


# ---------------------------------------------------------------------------
# acceptance: SIGKILL mid-suite, then --resume
# ---------------------------------------------------------------------------

def _run_suite_cli(cache_dir, *extra, check=True):
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir),
               PYTHONPATH="src", PYTHONUNBUFFERED="1")
    process = subprocess.run(
        [sys.executable, "-m", "repro.tools.cli", "suite",
         "--category", "micro", "--config", "rocket", "--scale", "0.3",
         *extra],
        capture_output=True, text=True, env=env, timeout=300)
    if check:
        assert process.returncode == 0, process.stderr
    return process


def test_sigkill_then_resume_is_bit_identical(tmp_path):
    oracle_dir = tmp_path / "oracle"
    victim_dir = tmp_path / "victim"
    oracle_dir.mkdir()
    victim_dir.mkdir()

    oracle = _run_suite_cli(oracle_dir)

    env = dict(os.environ, REPRO_CACHE_DIR=str(victim_dir),
               PYTHONPATH="src", PYTHONUNBUFFERED="1")
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.tools.cli", "suite",
         "--category", "micro", "--config", "rocket", "--scale", "0.3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # Give it long enough to checkpoint some pairs, then kill it hard.
    deadline = time.time() + 30
    ckpt = (victim_dir / "checkpoints")
    while time.time() < deadline and victim.poll() is None:
        if ckpt.is_dir() and any(ckpt.glob("*.ckpt")):
            break
        time.sleep(0.02)
    mid_flight = victim.poll() is None
    victim.kill()
    victim.wait(timeout=30)
    if not mid_flight:
        pytest.skip("suite finished before SIGKILL landed; nothing to kill")
    assert victim.returncode == -signal.SIGKILL

    # Progress survived the kill...
    resumed = _run_suite_cli(victim_dir, "--resume")
    # ...and the resumed output is bit-identical to the oracle's.
    assert resumed.stdout == oracle.stdout
    # A clean finish clears the checkpoint.
    assert not any((victim_dir / "checkpoints").glob("*.ckpt"))
