"""Digests of simulated outputs, and the committed golden file.

Every op the benchmark runs is checked against ``golden.json``: a
mismatch counts as a failed op.  A digest is the sha256 of a canonical
JSON document, with floats written to 12 significant digits, so it is
stable across processes and pins every simulated number the op
returns.  See ``README.md`` for how to regenerate the file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: Service result-document fields that record how a result was served
#: (store hit, retry count) rather than what was simulated.
PROVENANCE_FIELDS = ("attempts", "from_cache")


def _canon(value: Any) -> Any:
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, dict):
        return {str(key): _canon(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(val) for val in value]
    return value


def digest(document: Any) -> str:
    text = json.dumps(_canon(document), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def core_document(result, tma) -> Dict[str, Any]:
    """CoreResult cycles, instret and events plus TMA level 1."""
    return {"cycles": result.cycles, "instret": result.instret,
            "events": dict(result.events), "tma_level1": dict(tma.level1)}


def measurement_document(measurement, tma) -> Dict[str, Any]:
    """PMU read-back: counter values, mcycle/minstret and TMA level 1."""
    return {"cycles": measurement.cycles, "instret": measurement.instret,
            "passes": measurement.passes,
            "counters": dict(measurement.events),
            "core": core_document(measurement.result, tma),
            "tma_level1": dict(tma.level1)}


def multicore_document(mc_result) -> Dict[str, Any]:
    """Per-core results and interference attribution of one scenario."""
    cores = []
    for core in mc_result.cores:
        doc = core_document(core.result, core.tma)
        doc.update(index=core.index, workload=core.workload,
                   config=core.config_name,
                   attribution=core.attribution.to_payload())
        cores.append(doc)
    return {"scenario": mc_result.scenario, "cores": cores}


def service_document(result_doc: Dict[str, Any]) -> Dict[str, Any]:
    """A service result document without its provenance fields."""
    return {key: value for key, value in result_doc.items()
            if key not in PROVENANCE_FIELDS}


def load_golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)
