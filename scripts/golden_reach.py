#!/usr/bin/env python
"""Which ``src/repro`` functions do the golden-digest builders reach?

Runs every ``(key, builder)`` pair of ``tests/make_golden_digests.py``
under a stdlib ``sys.settrace`` call tracer and prints, per module, the
functions no builder called, then a reached/total summary per package.
A function that no digest reaches is either unpinned (add a digest
family) or unneeded (delete it).

Run from the repository root (about a minute; not part of CI)::

    PYTHONPATH=src python scripts/golden_reach.py

The run uses a fresh result/trace store in a temporary directory, so a
warm ``.cache/`` cannot hide the functional executor.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def defined_functions() -> Dict[str, List[Tuple[int, str]]]:
    """``{module path: [(first line, qualified name), ...]}`` by AST.

    The first line is the one Python reports as ``co_firstlineno``: the
    first decorator's line for a decorated function.
    """
    out: Dict[str, List[Tuple[int, str]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found: List[Tuple[int, str]] = []

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    line = min([child.lineno] + [d.lineno for d in
                                                 child.decorator_list])
                    found.append((line, prefix + child.name))
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
        out[str(path)] = found
    return out


def reached_functions() -> Set[Tuple[str, int]]:
    """``(filename, co_firstlineno)`` of every ``src/repro`` code object
    a golden builder called."""
    sys.path.insert(0, str(ROOT))
    sys.path.insert(0, str(ROOT / "src"))
    from tests.make_golden_digests import entries

    prefix = str(SRC)
    seen: Set[Tuple[str, int]] = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            seen.add((code.co_filename, code.co_firstlineno))
        return None

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        pairs = entries()
        for index, (key, build) in enumerate(pairs, 1):
            print(f"[{index}/{len(pairs)}] {key}", file=sys.stderr)
            build()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return seen


def main() -> int:
    functions = defined_functions()
    with tempfile.TemporaryDirectory(prefix="golden-reach-") as cache:
        os.environ["REPRO_CACHE_DIR"] = cache
        seen = reached_functions()
    totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for path, found in functions.items():
        module = Path(path).relative_to(SRC.parent).with_suffix("")
        package = ".".join(module.parts[:2])
        missed = [name for line, name in found if (path, line) not in seen]
        totals[package][0] += len(found) - len(missed)
        totals[package][1] += len(found)
        if missed:
            print(f"{'.'.join(module.parts)}: {len(missed)} of "
                  f"{len(found)} unreached")
            for name in missed:
                print(f"    {name}")
    print()
    reached = sum(hit for hit, _ in totals.values())
    total = sum(count for _, count in totals.values())
    for package, (hit, count) in sorted(totals.items()):
        if count:
            print(f"{package:<20s}{hit:5d}/{count:<5d}")
    print(f"{'all of src/repro':<20s}{reached:5d}/{total:<5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
