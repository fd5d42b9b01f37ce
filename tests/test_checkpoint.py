"""Re-running a killed or lapsed suite resumes it from the result cache.

Every finished (workload, config) point is stored in the checksummed
result cache as it completes, so the record of finished work is the
cache itself: a re-run of the same command serves those points and
simulates only the rest.  Covers the exact ``CoreResult`` codec of an
entry, bit-exactness of such a re-run on the inline and the pool paths,
re-running (never serving) a damaged entry or one cached by other
simulator source, the end-to-end acceptance (SIGKILL a ``repro-tma
suite`` run mid-suite, re-run it, get output identical to an
uninterrupted run), and the removal of ``--resume``.
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
from repro.cores.batch import GridPoint, parse_grid
from repro.tools import cache
from repro.tools.cli import main
from repro.tools.tma_tool import run_grid
from repro.workloads import trace_cache, workload_names


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    trace_cache.clear_memory()
    yield tmp_path
    trace_cache.clear_memory()


# ---------------------------------------------------------------------------
# a re-run resumes from the result cache, bit-exactly
# ---------------------------------------------------------------------------

def test_record_load_round_trip():
    [batch] = run_grid(["vvadd"], parse_grid("rocket"), scale=0.1,
                       use_cache=False)
    result = batch.results[0]
    payload = json.loads(json.dumps(cache.serialize_result(result)))
    assert cache.deserialize_result(payload) == result

    key = cache.cache_key("vvadd", 0.1, ROCKET)
    assert cache.store(key, result)
    assert cache.load(key) == result


def test_signature_mismatch_discards_progress(monkeypatch):
    points = parse_grid("rocket")
    run_grid(["vvadd"], points, scale=0.1)
    [again] = run_grid(["vvadd"], points, scale=0.1)
    assert again.stats.cache_hits == 1

    # An edited simulator has a new model fingerprint: progress cached
    # by the old source is never served.
    monkeypatch.setattr(cache, "model_fingerprint", lambda: "0" * 16)
    [edited] = run_grid(["vvadd"], points, scale=0.1)
    assert edited.stats.cache_hits == 0
    assert edited.stats.executed == 1


def test_suite_resume_skips_completed_and_matches_uninterrupted():
    names = ["vvadd", "median", "towers"]
    suite = [GridPoint(ROCKET.name, ROCKET)]
    oracle = run_grid(names, suite, scale=0.1, use_cache=False)

    # A "killed" first run: only the first workload finished.
    run_grid(names[:1], suite, scale=0.1)

    resumed = run_grid(names, suite, scale=0.1)
    assert [batch.stats.cache_hits for batch in resumed] == [1, 0, 0]
    assert [batch.stats.executed for batch in resumed] == [0, 1, 1]
    assert (to_json([batch.tma[0] for batch in resumed])
            == to_json([batch.tma[0] for batch in oracle]))


def test_parallel_resume_restores_recorded_pairs():
    workloads = ["vvadd", "median"]
    points = parse_grid("rocket,small-boom")

    full = run_grid(workloads, points, scale=0.1, use_cache=False,
                    workers=2)
    assert [batch.stats.mode for batch in full] == ["pool", "pool"]

    # Simulate a sweep killed after two pairs: the cache holds them.
    for point, result in zip(points, full[0].results):
        cache.store(cache.cache_key("vvadd", 0.1, point.config), result)

    resumed = run_grid(workloads, points, scale=0.1, workers=2)
    assert [batch.stats.cache_hits for batch in resumed] == [2, 0]
    assert [batch.stats.executed for batch in resumed] == [0, 2]
    assert ([cache.serialize_result(r) for b in resumed for r in b.results]
            == [cache.serialize_result(r) for b in full for r in b.results])


def test_parallel_resume_ignores_failed_entries():
    # An entry that fails to decode is re-run, never restored.
    points = parse_grid("rocket")
    path = cache.entry_path(cache.cache_key("vvadd", 0.1, ROCKET))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text('{"status": "failed", "error": "injected"}')

    [batch] = run_grid(["vvadd"], points, scale=0.1, workers=2)
    assert batch.stats.cache_hits == 0
    assert batch.stats.quarantined == ["rocket"]
    assert batch.stats.executed == 1
    oracle = run_grid(["vvadd"], points, scale=0.1, use_cache=False,
                      workers=1)
    assert (cache.serialize_result(batch.results[0])
            == cache.serialize_result(oracle[0].results[0]))


def test_resume_flag_is_gone(capsys):
    for command in ("suite", "sweep"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--resume"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --resume" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# acceptance: SIGKILL mid-suite, then re-run the same command
# ---------------------------------------------------------------------------

SUITE_ARGS = ["suite", "--category", "micro", "--config", "rocket",
              "--scale", "0.3"]


def _suite_env(cache_dir):
    return dict(os.environ, REPRO_CACHE_DIR=str(cache_dir),
                PYTHONPATH="src", PYTHONUNBUFFERED="1")


def _run_suite_cli(cache_dir):
    process = subprocess.run(
        [sys.executable, "-m", "repro.tools.cli", *SUITE_ARGS],
        capture_output=True, text=True, env=_suite_env(cache_dir),
        timeout=300)
    assert process.returncode == 0, process.stderr
    return process


def _entry_inodes(cache_dir):
    return {path.name: path.stat().st_ino
            for path in cache_dir.glob("*.json")}


def test_sigkill_then_resume_is_bit_identical(tmp_path):
    oracle_dir = tmp_path / "oracle"
    victim_dir = tmp_path / "victim"
    oracle_dir.mkdir()
    victim_dir.mkdir()

    oracle = _run_suite_cli(oracle_dir)

    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.tools.cli", *SUITE_ARGS],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_suite_env(victim_dir))
    # Wait for the first finished workload's cache entry, then kill hard.
    deadline = time.time() + 30
    while time.time() < deadline and victim.poll() is None:
        if any(victim_dir.glob("*.json")):
            break
        time.sleep(0.02)
    mid_flight = victim.poll() is None
    victim.kill()
    victim.wait(timeout=30)
    if not mid_flight:
        pytest.skip("suite finished before SIGKILL landed; nothing to kill")
    assert victim.returncode == -signal.SIGKILL

    # Progress survived the kill as result-cache entries...
    survivors = _entry_inodes(victim_dir)
    assert survivors
    resumed = _run_suite_cli(victim_dir)
    # ...the re-run's output is bit-identical to the oracle's...
    assert resumed.stdout == oracle.stdout
    # ...it served every surviving entry (a hit never rewrites the file,
    # a simulation replaces it) and simulated exactly the rest.
    after = _entry_inodes(victim_dir)
    assert {name: after[name] for name in survivors} == survivors
    assert len(after) == len(workload_names("micro"))
