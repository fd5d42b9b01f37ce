"""Source fingerprints must cover every module the cached work runs.

Three caches key their entries by a hash of simulator source: the
trace cache (``trace_cache.fingerprint``), the result cache
(``cache.model_fingerprint``) and the multicore scenario cache
(``multicore_fingerprint``).  An edit to any module a cached run
imported must change the fingerprint, or stale entries are served.

The check runs in a child process over a copy of the ``repro`` package:
it runs a trace build, Rocket and BOOM core runs and a multicore
scenario, then appends a comment to each ``repro`` module those runs
imported, one at a time, and recomputes the fingerprints.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import repro

CHILD = r"""
import importlib
import json
import sys

from repro.cores import config_by_name
from repro.multicore import get_scenario, run_scenario
from repro.tools.tma_tool import run_core
from repro.workloads import build_trace

build_trace("vvadd", scale=0.05)
for config in ("rocket", "large-boom"):
    run_core("vvadd", config_by_name(config), scale=0.05, use_cache=False)
run_scenario(get_scenario("symmetric").with_overrides(scale=0.05))

COVERS = {
    "trace": ("repro.isa", "repro.workloads"),
    "model": ("repro.isa", "repro.workloads", "repro.uarch", "repro.cores"),
    "multicore": ("repro.isa", "repro.workloads", "repro.uarch",
                  "repro.cores", "repro.multicore"),
}
OWNERS = ("repro.tools.cache", "repro.workloads.trace_cache",
          "repro.multicore.harness")


def fingerprints():
    for name in OWNERS:  # drop memoized values
        importlib.reload(sys.modules[name])
    return {
        "trace": sys.modules["repro.workloads.trace_cache"].fingerprint(),
        "model": sys.modules["repro.tools.cache"].model_fingerprint(),
        "multicore":
            sys.modules["repro.multicore.harness"].multicore_fingerprint(),
    }


def in_packages(name, packages):
    return any(name == p or name.startswith(p + ".") for p in packages)


imported = sorted(name for name, module in sys.modules.items()
                  if name.startswith("repro.")
                  and getattr(module, "__file__", None))
base = fingerprints()
report = {kind: {"checked": [], "missed": []} for kind in COVERS}
for name in imported:
    kinds = [k for k, packages in COVERS.items() if in_packages(name, packages)]
    if not kinds:
        continue
    path = sys.modules[name].__file__
    with open(path, "rb") as handle:
        original = handle.read()
    with open(path, "wb") as handle:
        handle.write(original + b"\n# edited\n")
    try:
        edited = fingerprints()
    finally:
        with open(path, "wb") as handle:
            handle.write(original)
    for kind in kinds:
        report[kind]["checked"].append(name)
        if edited[kind] == base[kind]:
            report[kind]["missed"].append(name)
print(json.dumps(report))
"""


def test_every_imported_module_contributes_to_its_fingerprint(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(Path(repro.__file__).parent, src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(src),
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    child = subprocess.run([sys.executable, "-c", CHILD], env=env,
                           cwd=tmp_path, capture_output=True, text=True,
                           timeout=300)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.strip().splitlines()[-1])

    assert "repro.isa.compiler" in report["trace"]["checked"]
    assert "repro.cores.descriptors" in report["model"]["checked"]
    assert "repro.uarch.prefetch" in report["model"]["checked"]
    assert "repro.multicore.uncore" in report["multicore"]["checked"]
    for kind, outcome in report.items():
        assert outcome["missed"] == [], kind
