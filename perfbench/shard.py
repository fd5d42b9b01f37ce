"""Shard server for the ``service-gateway`` workload.

Runs ``repro-tma`` with the given arguments (``serve --shard-id ...``)
in this process.  When ``PERFBENCH_SPANS`` names a file, the public
calls into each layer are wrapped with the benchmark's span tracer
first, and the spans are written to that file when the server exits.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    from repro.tools.cli import main as cli_main

    spans_path = os.environ.get("PERFBENCH_SPANS")
    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer(source=Path(spans_path).stem).install()
    try:
        return cli_main(sys.argv[1:])
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
