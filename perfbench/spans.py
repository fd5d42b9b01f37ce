"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from outside the simulator: :meth:`Tracer.install`
replaces a public function or method of one ``repro`` module with a
wrapper that opens a span, calls the original, and closes the span.
Nothing inside ``src/`` is edited, and an untraced run installs
nothing, so its timings carry no tracing cost.

Each span holds its name (the layer), start, end, parent span and the
benchmark op it ran under.  A layer's *self time* is the time its spans
cover minus the time their direct children cover, so a delay inside one
layer is charged to that layer only, never to its callers.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: What the traced run wraps: (layer, module, attribute).  A plain
#: attribute is a module function, and every ``repro`` module holding
#: the same function object is patched too, so ``from x import f``
#: bindings are caught.  ``Class.method`` replaces the method on the
#: class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.build_trace", "repro.workloads.registry", "build_trace"),
    ("isa.assemble", "repro.workloads.registry", "build_program"),
    ("isa.exec", "repro.isa.compiler", "execute_compiled"),
    ("cores.compile", "repro.cores.descriptors", "build_rocket_table"),
    ("cores.compile", "repro.cores.descriptors", "build_boom_table"),
    ("cores.rocket", "repro.cores.rocket.core", "RocketCore.run"),
    ("cores.boom", "repro.cores.boom.core", "BoomCore.run"),
    ("cores.batch", "repro.cores.batch", "run_batch"),
    ("cores.windowed", "repro.cores.windowed", "run_windowed"),
    ("pmu.measure", "repro.pmu.harness", "PerfHarness.measure"),
    ("multicore.scenario", "repro.multicore.harness", "run_scenario"),
    ("core.tma", "repro.core.tma", "compute_tma"),
    ("cache.load", "repro.tools.cache", "load"),
    ("cache.store", "repro.tools.cache", "store"),
    ("service.submit", "repro.service.client", "ServiceClient.submit"),
    ("service.gateway", "repro.service.gateway", "Gateway.submit_payload"),
    ("service.admit", "repro.service.app", "TMAService.submit_payload"),
    ("service.execute", "repro.reliability.runner", "ResilientRunner.run_one"),
)


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them out.

    *delays* maps a layer to seconds slept inside that layer's wrapper
    on every call.  The benchmark's self-test uses it to check that an
    injected delay is attributed to the layer it went into.
    """

    def __init__(self, delays: Optional[Dict[str, float]] = None,
                 source: str = "main") -> None:
        self.spans: List[Dict[str, Any]] = []
        self.delays = dict(delays or {})
        self.source = source
        self.op: Optional[str] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._patches: List[Tuple[object, str, object]] = []

    @contextmanager
    def span(self, layer: str, **attrs: Any):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            sid = self._next
            self._next += 1
        record = {"id": sid, "parent": stack[-1]["id"] if stack else None,
                  "name": layer, "op": self.op, "source": self.source,
                  "start": time.perf_counter(), "end": 0.0, "attrs": attrs}
        stack.append(record)
        try:
            yield record
        finally:
            delay = self.delays.get(layer)
            if delay:
                time.sleep(delay)
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def wrap(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer) as record:
                result = fn(*args, **kwargs)
                _annotate(record, args, result)
                return result

        return traced

    def install(self, targets: Sequence[Tuple[str, str, str]] = TARGETS
                ) -> "Tracer":
        for layer, module_name, attr in targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self.wrap(layer, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(layer, original)
            for loaded in list(sys.modules.values()):
                if not (getattr(loaded, "__name__", None) or "").startswith(
                        "repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, original, wrapper)
        return self

    def _patch(self, owner: object, attr: str, original: object,
               wrapper: object) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def _annotate(record: Dict[str, Any], args: tuple, result: Any) -> None:
    """Attach the counts the per-layer metrics divide by."""
    layer = record["name"]
    attrs = record["attrs"]
    if layer in ("cores.rocket", "cores.boom"):
        core = args[0]
        attrs["instret"] = result.instret
        attrs["observed"] = bool(core.observers or core.fault_hook)
    elif layer == "isa.exec":
        attrs["instret"] = len(result)
    elif layer == "pmu.measure":
        attrs["instret"] = result.instret * result.passes
    elif layer == "cores.batch":
        attrs["share_rate"] = result.stats.share_rate()
    elif layer == "multicore.scenario":
        attrs["cycles"] = sum(core.result.cycles for core in result.cores)


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Seconds each layer spent outside its direct child spans."""
    child_time: Dict[Tuple[str, int], float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["source"], span["parent"])
            child_time[key] = (child_time.get(key, 0.0)
                               + span["end"] - span["start"])
    totals: Dict[str, float] = {}
    for span in spans:
        own = (span["end"] - span["start"]
               - child_time.get((span["source"], span["id"]), 0.0))
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals
