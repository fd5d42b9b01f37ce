"""Smoke tests: every example script must run and produce its output.

Examples are the library's front door; these tests keep them from
rotting.  They run in-process (importing each script's ``main``) with
``sys.argv`` pinned, sharing the workload/result caches with the rest of
the suite.
"""

import importlib.util
import sys
from pathlib import Path

from repro.workloads import registry

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_example(name: str, capsys, argv=()):
    module = load_example(name)
    old_argv = sys.argv
    sys.argv = [f"{name}.py", *argv]
    try:
        code = module.main()
    finally:
        sys.argv = old_argv
    out = capsys.readouterr().out
    return code, out


def test_quickstart(capsys):
    code, out = run_example("quickstart", capsys, argv=["vvadd"])
    assert code == 0
    assert "vvadd on Rocket" in out
    assert "vvadd on LargeBOOMV3" in out


def test_quickstart_unknown_workload(capsys):
    code, out = run_example("quickstart", capsys, argv=["nonsense"])
    assert code == 1
    assert "available" in out


def test_case_study_cache_size(capsys):
    code, out = run_example("case_study_cache_size", capsys)
    assert code == 0
    assert "measured slowdown" in out
    assert "Backend delta" in out


def test_counter_architectures(capsys):
    code, out = run_example("counter_architectures", capsys)
    assert code == 0
    assert "OpenSBI boot sequence" in out
    assert "marshal-pmu build" in out
    assert "scalar" in out


def test_temporal_trace(capsys):
    code, out = run_example("temporal_trace", capsys)
    assert code == 0
    assert "recovering sequences" in out
    assert "temporal TMA vs counter TMA" in out


def test_vlsi_overheads(capsys):
    code, out = run_example("vlsi_overheads", capsys)
    assert code == 0
    assert "GigaBOOMV3" in out
    assert "mm^2" in out


def test_custom_workload(capsys, monkeypatch):
    # The example registers "histogram"; keep it out of the
    # process-wide registry the rest of the suite counts.
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    code, out = run_example("custom_workload", capsys)
    assert code == 0
    assert "histogram on Rocket" in out
    assert "histogram on LargeBOOMV3" in out


def test_boom_size_sweep(capsys):
    code, out = run_example("boom_size_sweep", capsys, argv=["vvadd"])
    assert code == 0
    assert "SmallBOOMV3" in out
    assert "GigaBOOMV3" in out


def test_phase_profile(capsys):
    code, out = run_example("phase_profile", capsys,
                            argv=["vvadd", "2048"])
    assert code == 0
    assert "TMA phase profile" in out
    assert "IPC per window" in out
