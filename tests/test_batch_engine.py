"""The batched grid engine must be bit-identical to per-config runs.

``repro.cores.batch.run_batch`` replays one shared trace through every
grid point while sharing only provably pure artifacts (the trace
columns, per-family descriptor tables, TAGE fold memos).  The oracle is
a standalone ``run_core`` of the same (workload, config, scale): these
tests pin the full ``CoreResult`` surface for the whole workload
registry across the default grid-of-4, the grid-spec parser and its
canonical point keys, fold-cache sharing safety, and the end-to-end
acceptance — SIGKILL a ``repro-tma sweep --grid`` run mid-grid (or let
its deadline lapse), re-run the same command, and require the matrix
to match an uninterrupted oracle run exactly.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cores import LARGE_BOOM, ROCKET, SMALL_BOOM
from repro.cores.batch import (DEFAULT_GRID, canonical_grid_key, parse_grid,
                               point_from_key, resolve_config_spec, run_batch)
from repro.cores.boom import BoomCore
from repro.cores.rocket import RocketCore
from repro.tools import cache, pool
from repro.tools.tma_tool import run_core
from repro.uarch.branch import share_fold_caches
from repro.workloads import build_trace, workload_names

SCALE = 0.3

GRID = parse_grid(DEFAULT_GRID)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    yield tmp_path


def result_digest(result):
    return (
        result.events,
        result.lane_events,
        result.cycles,
        result.instret,
        dataclasses.astuple(result.l1i_stats),
        dataclasses.astuple(result.l1d_stats),
        dataclasses.astuple(result.l2_stats),
        dataclasses.astuple(result.predictor_stats),
        result.extra,
    )


# ----------------------------------------------------------------------
# bit-identity across the registry


@pytest.mark.parametrize("workload", workload_names())
def test_batch_matches_single_config_oracle(workload):
    batch = run_batch(workload, GRID, scale=SCALE, use_cache=False)
    assert batch.stats.executed == len(GRID)
    assert batch.stats.trace_fetches == 1
    for point in GRID:
        oracle = run_core(workload, point.config, scale=SCALE,
                          use_cache=False)
        assert result_digest(batch.result_for(point.key)) == \
            result_digest(oracle), point.key


def test_batch_shares_tables_and_folds_on_columnar():
    trace = build_trace("towers", scale=SCALE)
    assert hasattr(trace, "timing_table")
    batch = run_batch("towers", GRID, scale=SCALE, use_cache=False,
                      workers=1)
    stats = batch.stats
    assert stats.mode == "inline"
    # One rocket + three BOOM points: each family compiles its
    # descriptor table once, the points beyond the first share it.
    assert stats.tables_shared == 2
    # Three TAGE-predicting BOOMs x four same-geometry tables, minus
    # the four donor tables.
    assert stats.fold_caches_shared == 8


def test_variant_grid_matches_oracle():
    points = parse_grid("rocket,small-boom",
                        vary=("l1d=4,16", "bp=gshare"))
    keys = [p.key for p in points]
    # The bp axis applies to BOOM only; Rocket rides through un-crossed.
    assert keys == [
        "rocket+l1d=4",
        "rocket+l1d=16",
        "small-boom+bp=gshare+l1d=4",
        "small-boom+bp=gshare+l1d=16",
    ]
    batch = run_batch("vvadd", points, scale=SCALE, use_cache=False)
    for point in points:
        oracle = run_core("vvadd", point.config, scale=SCALE,
                          use_cache=False)
        assert result_digest(batch.result_for(point.key)) == \
            result_digest(oracle), point.key


def test_process_pool_matches_inline():
    inline = run_batch("median", GRID, scale=SCALE, use_cache=False,
                       workers=1)
    pooled = run_batch("median", GRID, scale=SCALE, use_cache=False,
                       workers=2)
    assert pooled.stats.mode == "pool"
    assert pooled.stats.fallback_reason is None
    for point in GRID:
        assert result_digest(pooled.result_for(point.key)) == \
            result_digest(inline.result_for(point.key))


def test_pool_failure_falls_back_inline(monkeypatch):
    def broken_factory(workers):
        raise OSError("no pool for you")

    monkeypatch.setitem(pool.EXECUTOR_FACTORIES, "process", broken_factory)
    batch = run_batch("vvadd", GRID, scale=SCALE, use_cache=False,
                      workers=2)
    assert batch.stats.fallback_reason == "OSError: no pool for you"
    assert batch.stats.mode == "inline"
    oracle = run_core("vvadd", GRID[0].config, scale=SCALE,
                      use_cache=False)
    assert result_digest(batch.result_for(GRID[0].key)) == \
        result_digest(oracle)


def test_corrupt_cache_entry_is_quarantined_and_labeled():
    from repro.tools.cli import _render_grid_matrix

    points = GRID[:2]
    first = run_batch("vvadd", points, scale=SCALE, workers=1)
    key = cache.cache_key("vvadd", SCALE, points[0].config)
    path = cache.entry_path(key)
    path.write_bytes(path.read_bytes()[:40])  # a torn write
    again = run_batch("vvadd", points, scale=SCALE, workers=1)
    assert again.stats.quarantined == [points[0].key]
    assert again.stats.cache_hits == 1
    assert again.stats.executed == 1
    assert "quarantined=1" in _render_grid_matrix(again)
    for point in points:
        assert result_digest(again.result_for(point.key)) == \
            result_digest(first.result_for(point.key))
    assert cache.load(key) is not None  # repopulated intact
    third = run_batch("vvadd", points, scale=SCALE, workers=1)
    assert third.stats.quarantined == []
    assert third.stats.cache_hits == 2


# ----------------------------------------------------------------------
# grid specs and canonical keys


def test_parse_grid_dedups_and_canonicalizes():
    points = parse_grid("rocket, small-boom ,rocket")
    assert [p.key for p in points] == ["rocket", "small-boom"]
    # The bp axis never applies to Rocket; duplicates collapse.
    rocket_only = parse_grid("rocket", vary=("bp=gshare,tage",))
    assert [p.key for p in rocket_only] == ["rocket"]
    # --vary flag order does not matter: axes are alphabetical.
    a = parse_grid("small-boom", vary=("l1d=8", "bp=gshare"))
    b = parse_grid("small-boom", vary=("bp=gshare", "l1d=8"))
    assert [p.key for p in a] == [p.key for p in b] == \
        ["small-boom+bp=gshare+l1d=8"]


def test_point_from_key_round_trips_and_rejects():
    point = point_from_key("small-boom+bp=gshare+l1d=4")
    assert point.key == "small-boom+bp=gshare+l1d=4"
    assert point.config.branch_predictor == "gshare"
    assert point.config.l1d.size_bytes == 4 * 1024
    with pytest.raises(ValueError, match="canonical"):
        point_from_key("small-boom+l1d=4+bp=gshare")  # wrong axis order
    with pytest.raises(ValueError, match="canonical"):
        point_from_key("small-boom+l1d=4+l1d=8")  # repeated axis
    with pytest.raises(ValueError, match="does not apply"):
        point_from_key("rocket+bp=tage")
    with pytest.raises(ValueError, match="malformed"):
        point_from_key("rocket+l1d")
    with pytest.raises(KeyError):
        point_from_key("mystery-core")
    with pytest.raises(ValueError, match="names no configurations"):
        parse_grid("  ,  ")


def test_resolve_config_spec_widens_registry():
    assert resolve_config_spec("large-boom") is LARGE_BOOM
    variant = resolve_config_spec("large-boom+fetch=2")
    assert variant.fetch_width == 2
    # Variant names extend the config's display name, so result-cache
    # and job keys for variants can never collide with the base config.
    assert variant.name == f"{LARGE_BOOM.name}+fetch=2"


def test_canonical_grid_key_is_order_and_dup_independent():
    points = parse_grid("rocket,small-boom,medium-boom")
    shuffled = [points[2], points[0], points[1], points[0]]
    assert canonical_grid_key("mm", points, 1.0) == \
        canonical_grid_key("mm", shuffled, 1.0)
    assert canonical_grid_key("mm", points, 1.0) != \
        canonical_grid_key("mm", points, 0.5)
    assert canonical_grid_key("mm", points, 1.0) != \
        canonical_grid_key("spmv", points, 1.0)
    assert canonical_grid_key("mm", points[:2], 1.0) != \
        canonical_grid_key("mm", points, 1.0)


def test_run_batch_rejects_degenerate_grids():
    with pytest.raises(ValueError, match="empty grid"):
        run_batch("vvadd", [], scale=SCALE)
    dup = [GRID[0], GRID[0]]
    with pytest.raises(ValueError, match="duplicate grid point"):
        run_batch("vvadd", dup, scale=SCALE)


# ----------------------------------------------------------------------
# fold-cache sharing and per-run state


def test_share_fold_caches_adopts_same_geometry_only():
    donors = BoomCore(LARGE_BOOM)
    adopter = BoomCore(LARGE_BOOM)
    count = share_fold_caches([donors.predictor, adopter.predictor])
    tables = donors.predictor.direction.tables
    assert count == len(tables)
    for a, b in zip(tables, adopter.predictor.direction.tables):
        assert a._folds is b._folds
    # Rocket predictors have no pluggable direction predictor and are
    # skipped; None entries are tolerated (harness-less cores).
    rocket = RocketCore(ROCKET)
    assert share_fold_caches(
        [getattr(rocket, "predictor", None), None]) == 0


def test_shared_folds_do_not_change_results():
    trace = build_trace("qsort", scale=SCALE)
    pristine = BoomCore(SMALL_BOOM).run(trace)
    shared_a = BoomCore(SMALL_BOOM)
    shared_b = BoomCore(SMALL_BOOM)
    share_fold_caches([shared_a.predictor, shared_b.predictor])
    assert result_digest(shared_a.run(trace)) == result_digest(pristine)
    assert result_digest(shared_b.run(trace)) == result_digest(pristine)


def test_batch_rerun_and_cache_hits_are_bit_identical():
    first = run_batch("towers", GRID, scale=SCALE, use_cache=True)
    assert first.stats.executed == len(GRID)
    second = run_batch("towers", GRID, scale=SCALE, use_cache=True)
    assert second.stats.executed == 0
    assert second.stats.cache_hits == len(GRID)
    assert second.stats.share_rate() == 1.0
    for point in GRID:
        assert result_digest(first.result_for(point.key)) == \
            result_digest(second.result_for(point.key))


# ----------------------------------------------------------------------
# acceptance: SIGKILL mid-grid (or a lapsed deadline), then re-run
# ----------------------------------------------------------------------

SWEEP_ARGS = ["sweep", "--grid", "rocket,small-boom",
              "--workloads", "towers,vvadd,median", "--scale", "0.3",
              "--workers", "1"]


def _sweep_env(cache_dir):
    return dict(os.environ, REPRO_CACHE_DIR=str(cache_dir),
                PYTHONPATH="src", PYTHONUNBUFFERED="1")


def _run_sweep_cli(cache_dir, json_path, *extra, check=True):
    process = subprocess.run(
        [sys.executable, "-m", "repro.tools.cli", *SWEEP_ARGS,
         "--json", str(json_path), *extra],
        capture_output=True, text=True, env=_sweep_env(cache_dir),
        timeout=300)
    if check:
        assert process.returncode == 0, process.stderr
    return process


def _load(json_path):
    with open(json_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _matrix(json_path):
    """The simulated quantities only (stats differ on a re-run)."""
    return {
        workload: section["points"]
        for workload, section in _load(json_path)["workloads"].items()
    }


def _stat_total(json_path, name):
    return sum(section["stats"][name]
               for section in _load(json_path)["workloads"].values())


@pytest.fixture(scope="module")
def sweep_oracle(tmp_path_factory):
    """The matrix of one uninterrupted sweep in its own cache."""
    root = tmp_path_factory.mktemp("sweep-oracle")
    _run_sweep_cli(root, root / "oracle.json")
    return _matrix(root / "oracle.json")


def test_sigkill_mid_grid_then_resume_is_bit_identical(tmp_path,
                                                       sweep_oracle):
    victim_json = tmp_path / "victim.json"
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.tools.cli", *SWEEP_ARGS],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_sweep_env(tmp_path))
    # Wait for the first finished point's cache entry, then SIGKILL.
    deadline = time.time() + 30
    while time.time() < deadline and victim.poll() is None:
        if any(tmp_path.glob("*.json")):
            break
        time.sleep(0.02)
    mid_flight = victim.poll() is None
    victim.kill()
    victim.wait(timeout=30)
    if not mid_flight:
        pytest.skip("sweep finished before SIGKILL landed")
    assert victim.returncode == -signal.SIGKILL

    _run_sweep_cli(tmp_path, victim_json)
    assert _matrix(victim_json) == sweep_oracle
    # The re-run served what the killed run finished, ran the rest.
    hits = _stat_total(victim_json, "cache_hits")
    assert hits >= 1
    assert (_stat_total(victim_json, "executed") + hits
            == _stat_total(victim_json, "points_total"))


def test_deadline_lapsed_sweep_finishes_on_rerun(tmp_path, sweep_oracle):
    sweep_json = tmp_path / "sweep.json"
    lapsed = _run_sweep_cli(tmp_path, sweep_json, "--deadline", "0",
                            check=False)
    assert lapsed.returncode == 3, lapsed.stderr
    assert "re-run the same command" in lapsed.stderr
    partial = _load(sweep_json)
    assert partial["partial"] is True
    assert partial["remaining"] == ["towers", "vvadd", "median"]

    _run_sweep_cli(tmp_path, sweep_json)
    assert "partial" not in _load(sweep_json)
    assert _matrix(sweep_json) == sweep_oracle
