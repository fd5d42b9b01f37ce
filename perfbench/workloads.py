"""The benchmark's four closed-loop workloads.

Every workload runs a fixed set of ops per *round*; the seed only
chooses the order of the ops and, on ``service-gateway``, which earlier
job each repeat submission names.  Every round therefore runs the same
multiset of ops, so medians and tails compare across seeds and runs.
Each op's simulated output is checked against ``golden.json``.

``repro`` is imported inside methods only: the import is part of the
measured set-up time.  Nothing here passes a timing-engine or fast-path
option, so the program chooses its engines itself.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from digests import (core_document, digest, measurement_document,
                     multicore_document, service_document)

HERE = Path(__file__).resolve().parent

#: Host-probe readings taken before each concurrent round.
PROBES_PER_ROUND = 10

#: Pool size for fan-out workloads.  The host the benchmark was sized
#: for has two cores; never ask for more workers than the host has.
WORKERS = max(1, min(2, os.cpu_count() or 1))


@dataclass
class OpRecord:
    """One timed op: what ran, how long it took, whether it was right."""

    key: str
    seconds: float
    sim_instr: int = 0
    ok: bool = True
    error: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Index in ``Context.probes`` of the host probe read just before it.
    probe: int = 0


def host_probe(iterations: int = 30_000) -> float:
    """Milliseconds for a fixed pure-Python loop that runs no simulator code.

    It moves only when the host does, so it marks slow periods of the
    machine and is the benchmark's yardstick for host speed.
    """
    begin = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - begin) * 1000.0


class Context:
    """State one benchmark run shares with its workload.

    *record* switches the digest check into recording mode (used by
    ``make_golden.py``): digests are collected instead of compared, and
    an op whose digest differs from an earlier run of the same op
    fails.
    """

    def __init__(self, work_dir: Path, golden: Optional[Dict[str, Any]],
                 record: Optional[Dict[str, Any]] = None) -> None:
        self.work_dir = work_dir
        self.golden = golden or {}
        self.record = record
        self.tracer = None
        self.shard_span_files: List[Path] = []
        #: host_probe() readings taken between ops, outside any timing.
        self.probes: List[float] = []

    def fresh_cache_dir(self, label: str) -> Path:
        """Point the result store and trace disk tier at an empty dir."""
        path = self.work_dir / label
        path.mkdir(parents=True, exist_ok=True)
        os.environ["REPRO_CACHE_DIR"] = str(path)
        return path

    def span(self, layer: str, **attrs: Any):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(layer, **attrs)

    def set_op(self, key: Optional[str]) -> None:
        if self.tracer is not None:
            self.tracer.op = key

    def check(self, section: str, key: str, document: Any) -> bool:
        value = digest(document)
        if self.record is not None:
            known = self.record.setdefault(section, {})
            if known.setdefault(key, value) != value:
                return False
            return True
        return self.golden.get(section, {}).get(key) == value

    def expect(self, section: str, key: str) -> Any:
        """A stored reference value (recorded runs read their own)."""
        source = self.record if self.record is not None else self.golden
        return source.get(section, {}).get(key)


def clear_trace_tiers() -> None:
    """Drop the in-memory program/trace tiers and re-prime the key.

    Re-priming the functional-semantics fingerprint keeps its file
    reads out of the next op's timing: it is set-up work.
    """
    from repro.workloads import clear_caches, trace_cache

    clear_caches()
    trace_cache.fingerprint()


def prepare_process() -> None:
    """Imports and fingerprints every workload needs (set-up work)."""
    import repro.core.tma  # noqa: F401
    import repro.cores.batch  # noqa: F401
    import repro.cores.windowed  # noqa: F401
    import repro.multicore  # noqa: F401
    import repro.pmu.harness  # noqa: F401
    from repro.tools import cache
    from repro.workloads import trace_cache, workload_names

    workload_names()
    cache.model_fingerprint()
    trace_cache.fingerprint()


class Workload:
    name = ""
    #: Round length on the two-core machine the benchmark was sized on;
    #: only used to turn ``--seconds`` into a fixed round count.
    nominal_round_s = 3.0
    max_rounds = 40
    #: True when every round runs the same op keys (see run.typical_op).
    fixed_ops = True

    def rounds_for(self, seconds: float) -> int:
        rounds = int(seconds / self.nominal_round_s + 0.5)
        return max(2, min(self.max_rounds, rounds))

    def setup(self, ctx: Context) -> None:
        raise NotImplementedError

    def run_round(self, ctx: Context, rng: random.Random,
                  index: int) -> Tuple[float, List[OpRecord]]:
        """Run one round; return its wall seconds and its op records."""
        raise NotImplementedError

    def teardown(self, ctx: Context) -> None:
        pass

    def layer_metrics(self) -> Dict[str, float]:
        """Workload-specific per-layer figures gathered by probes."""
        return {}

    def finish(self, ctx: Context, records: List[OpRecord]
               ) -> Dict[str, int]:
        """Untimed, after the last round: counters kept in other processes."""
        return {}


class SerialWorkload(Workload):
    """Ops run one after another from the main thread."""

    def ops(self) -> List[Any]:
        raise NotImplementedError

    def begin_round(self, ctx: Context, index: int) -> None:
        ctx.fresh_cache_dir(f"round-{index}")

    def before_op(self, op: Any) -> None:
        pass

    def run_op(self, ctx: Context, op: Any
               ) -> Tuple[str, List[Tuple[str, Any]], int, Any]:
        """Run *op*; return (key, [(digest key, document)], instrs, raw)."""
        raise NotImplementedError

    def probe(self, ctx: Context, op: Any, raw: Any, seconds: float) -> None:
        """Traced run only: untimed reference runs for ratio metrics."""

    def op_extra(self, raw: Any) -> Dict[str, Any]:
        return {}

    def run_round(self, ctx: Context, rng: random.Random,
                  index: int) -> Tuple[float, List[OpRecord]]:
        """Ops in seeded order; the round's wall is the sum of its ops.

        Work between ops (emptying caches, a full garbage collection so
        each op starts from the same heap whatever ran before it, the
        digest check) is the benchmark's, not the program's, and stays
        out of every timing.
        """
        self.begin_round(ctx, index)
        ops = self.ops()
        rng.shuffle(ops)
        records = []
        for op in ops:
            self.before_op(op)
            gc.collect()
            ctx.probes.append(host_probe())
            probe = len(ctx.probes) - 1
            key = str(op)
            ctx.set_op(key)
            begin = time.perf_counter()
            try:
                key, documents, instrs, raw = self.run_op(ctx, op)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                seconds = time.perf_counter() - begin
                ctx.set_op(None)
                records.append(OpRecord(key, seconds, ok=False,
                                        error=f"{type(exc).__name__}: {exc}",
                                        probe=probe))
                continue
            seconds = time.perf_counter() - begin
            ctx.set_op(None)
            bad = [k for k, doc in documents
                   if not ctx.check(self.name, k, doc)]
            records.append(OpRecord(
                key, seconds, instrs, ok=not bad,
                error=f"digest mismatch: {bad}" if bad else None,
                extra=self.op_extra(raw), probe=probe))
            if ctx.tracer is not None:
                ctx.set_op(f"probe:{key}")
                self.probe(ctx, op, raw, seconds)
                ctx.set_op(None)
        return sum(record.seconds for record in records), records


# ----------------------------------------------------------------------
# sweep-grid


class SweepGrid(SerialWorkload):
    """A user's first ``sweep --grid``: every registry workload, cold.

    One op is ``run_batch(workload, [rocket, large-boom], workers=1)``
    with the result store and both trace tiers empty, so it pays
    assembly, functional execution, descriptor compile, two plain cycle
    loops, TMA and the result-store writes.
    """

    name = "sweep-grid"
    nominal_round_s = 3.6
    SCALE = 0.1
    GRID = "rocket,large-boom"

    def setup(self, ctx: Context) -> None:
        from repro.cores.batch import parse_grid
        from repro.workloads import workload_names

        self.names = workload_names()
        self.points = parse_grid(self.GRID)

    def ops(self) -> List[Any]:
        return list(self.names)

    def before_op(self, op: Any) -> None:
        clear_trace_tiers()

    def run_op(self, ctx, op):
        from repro.cores.batch import run_batch

        batch = run_batch(op, self.points, scale=self.SCALE, workers=1)
        documents = [
            (f"{op}/{point.key}", core_document(result, tma))
            for point, result, tma in zip(batch.points, batch.results,
                                          batch.tma)]
        instrs = sum(result.instret for result in batch.results)
        return op, documents, instrs, batch


# ----------------------------------------------------------------------
# pmu-multicore


class PmuMulticore(SerialWorkload):
    """PMU counter read-back and multicore interference scenarios.

    Ops are ``PerfHarness.measure`` over (workload, Rocket/BOOM-large)
    pairs and ``run_scenario`` over the four multicore scenarios.  Both
    attach observers or fault hooks, so they run on the per-cycle object
    loops.  Traces are built in set-up and stay in the memory tier.
    """

    name = "pmu-multicore"
    nominal_round_s = 4.4
    SCALE = 0.15
    SCENARIO_SCALE = 0.1
    WORKLOADS = ("dhrystone", "median", "mergesort", "mm", "qsort",
                 "rsort", "spmv", "towers", "vvadd")
    CONFIGS = (("rocket", "rocket"), ("large-boom", "boom"))

    def setup(self, ctx: Context) -> None:
        from repro.multicore import get_scenario, scenario_names
        from repro.pmu.harness import PerfHarness
        from repro.workloads import build_trace

        self.harness = {core: PerfHarness(core=core)
                        for _, core in self.CONFIGS}
        self.scenarios = {
            name: get_scenario(name).with_overrides(
                scale=self.SCENARIO_SCALE)
            for name in scenario_names()}
        for workload in self.WORKLOADS:
            build_trace(workload, scale=self.SCALE)
        for scenario in self.scenarios.values():
            for _, slot in scenario.active_slots():
                build_trace(slot.workload, scale=self.SCENARIO_SCALE)
        self.ratios: Dict[str, List[Tuple[float, float]]] = {
            "measure": [], "scenario": []}

    def ops(self) -> List[Any]:
        ops: List[Any] = [("measure", workload, config)
                          for workload in self.WORKLOADS
                          for config, _ in self.CONFIGS]
        ops += [("scenario", name) for name in sorted(self.scenarios)]
        return ops

    def run_op(self, ctx, op):
        from repro.core.tma import compute_tma
        from repro.cores.configs import config_by_name
        from repro.multicore import run_scenario

        if op[0] == "measure":
            _, workload, config = op
            core = dict(self.CONFIGS)[config]
            measurement = self.harness[core].measure(
                workload, config_by_name(config), scale=self.SCALE)
            key = f"measure/{workload}/{config}"
            document = measurement_document(measurement,
                                            compute_tma(measurement))
            return (key, [(key, document)],
                    measurement.instret * measurement.passes, measurement)
        result = run_scenario(self.scenarios[op[1]])
        key = f"scenario/{op[1]}"
        instrs = sum(core.result.instret for core in result.cores)
        return key, [(key, multicore_document(result))], instrs, result

    def probe(self, ctx, op, raw, seconds):
        from repro.cores.batch import make_core, resolve_config_spec
        from repro.workloads import build_trace

        if op[0] == "measure":
            trace = build_trace(op[1], scale=self.SCALE)
            begin = time.perf_counter()
            make_core(resolve_config_spec(op[2])).run(trace)
            self.ratios["measure"].append(
                (seconds, time.perf_counter() - begin))
            return
        solo = 0.0
        for _, slot in self.scenarios[op[1]].active_slots():
            trace = build_trace(slot.workload, scale=self.SCENARIO_SCALE)
            begin = time.perf_counter()
            make_core(resolve_config_spec(slot.config)).run(trace)
            solo += time.perf_counter() - begin
        self.ratios["scenario"].append((seconds, solo))

    def layer_metrics(self) -> Dict[str, float]:
        out = {}
        for name, metric in (("measure", "pmu.observer_ratio"),
                             ("scenario", "multicore.lockstep_ratio")):
            pairs = self.ratios[name]
            if pairs:
                out[metric] = (sum(p[0] for p in pairs)
                               / sum(p[1] for p in pairs))
        return out


# ----------------------------------------------------------------------
# huge-windowed


class HugeWindowed(SerialWorkload):
    """Huge-tier traces through the windowed engine, exact and sampled.

    The only workload where process fan-out, the window codec and the
    stitch do most of the work.  Traces are built in set-up; the result
    store is emptied every round.  Sampled results are compared with
    the serial full-run TMA stored beside the digests.
    """

    name = "huge-windowed"
    nominal_round_s = 3.5
    SCALE = 0.5
    WINDOWS = 4
    WORKLOADS = ("huge-stream", "huge-walk")
    CONFIGS = ("rocket", "large-boom")
    REFERENCE = "huge-reference"

    def setup(self, ctx: Context) -> None:
        from repro.workloads import build_trace

        for workload in self.WORKLOADS:
            build_trace(workload, scale=self.SCALE)

    def ops(self) -> List[Any]:
        return [(workload, config, sampled)
                for workload in self.WORKLOADS for config in self.CONFIGS
                for sampled in (False, True)]

    def run_op(self, ctx, op):
        from repro.core.tma import compute_tma
        from repro.cores.configs import config_by_name
        from repro.cores.windowed import run_windowed

        workload, config, sampled = op
        result = run_windowed(workload, config_by_name(config),
                              windows=self.WINDOWS, scale=self.SCALE,
                              sampled=sampled, workers=WORKERS)
        tma = compute_tma(result)
        key = f"{workload}/{config}/{'sampled' if sampled else 'exact'}"
        document = dict(core_document(result, tma), sampled=result.sampled)
        meta = result.windowed
        warmup = meta["warmup"]
        instrs = 0
        for start, stop in meta["spans"]:
            warm_start = max(0, start - warmup)
            instrs += (stop - warm_start) + (start - warm_start)
        raw = {"walls": list(meta["window_wall_s"]), "tma": tma.level1,
               "sampled": sampled, "ref": f"{workload}/{config}"}
        return key, [(key, document)], instrs, raw

    def op_extra(self, raw):
        return raw


# ----------------------------------------------------------------------
# service-gateway


class ServiceGateway(Workload):
    """Two closed-loop clients against two shards behind the gateway.

    Set-up starts two ``repro-tma serve --shard-id`` processes (thread
    executor, one worker each) on one empty result store and a gateway
    in this process.  A round gives each client a share of that round's
    new jobs; after every new job a client also submits a repeat of a
    job already submitted in the round, in an order the seed picks.
    Repeats are served from the store or coalesced onto the running
    primary; new jobs execute.  Each round uses its own input scale, so
    its jobs and traces are new to the shards.  Clients wait on the SSE
    stream, not by polling.  An op is one client's (new, repeat) pair.
    """

    name = "service-gateway"
    nominal_round_s = 1.4
    fixed_ops = False
    WORKLOADS = ("dhrystone", "median", "mergesort", "multiply", "qsort",
                 "towers", "vvadd", "mm")
    CONFIGS = ("rocket", "large-boom")
    CLIENTS = 2
    SHARDS = 2
    #: One input scale per round; the golden file covers each of them.
    SCALES = tuple(round(0.1 + 0.001 * i, 3) for i in range(24))
    max_rounds = len(SCALES)

    def __init__(self) -> None:
        self.processes: List[subprocess.Popen] = []
        self.gateway_server = None
        self.unique_keys: set = set()

    def setup(self, ctx: Context) -> None:
        from repro.service import Gateway, ServiceClient
        from repro.service.gateway import serve_gateway_in_thread

        store = ctx.fresh_cache_dir("store")
        urls = {}
        try:
            for index in range(self.SHARDS):
                shard_id = f"s{index + 1}"
                urls[shard_id] = self._start_shard(ctx, shard_id, store)
            gateway = Gateway(",".join(f"{sid}={url}"
                                       for sid, url in sorted(urls.items())))
            self.gateway_server, _ = serve_gateway_in_thread(gateway)
        except BaseException:
            self.teardown(ctx)
            raise
        self.shard_urls = urls
        self.url = f"http://127.0.0.1:{self.gateway_server.server_address[1]}"
        self.client = ServiceClient(self.url, timeout=60.0)
        self.client.healthz()

    def _start_shard(self, ctx: Context, shard_id: str, store: Path):
        root = HERE.parent
        env = dict(os.environ, REPRO_CACHE_DIR=str(store),
                   PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        env.pop("PERFBENCH_SPANS", None)
        if ctx.tracer is not None:
            spans = ctx.work_dir / f"spans-{shard_id}.json"
            env["PERFBENCH_SPANS"] = str(spans)
            ctx.shard_span_files.append(spans)
        process = subprocess.Popen(
            [sys.executable, str(HERE / "shard.py"), "serve", "--port", "0",
             "--shard-id", shard_id, "--executor", "thread",
             "--workers", "1", "--no-resume"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, cwd=str(ctx.work_dir))
        self.processes.append(process)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            banner = process.stdout.readline()
            if "service on http://" in banner:
                return banner.split("service on ", 1)[1].split()[0]
            if not banner and process.poll() is not None:
                break
        raise RuntimeError(f"shard {shard_id} did not start")

    def teardown(self, ctx: Context) -> None:
        if self.gateway_server is not None:
            self.gateway_server.shutdown()
            self.gateway_server.server_close()
            self.gateway_server = None
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        for process in self.processes:
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=20)
            if process.stdout is not None:
                process.stdout.close()
        self.processes = []

    def _submit(self, ctx: Context, job: Tuple[str, str, float],
                on_accepted=None) -> Dict[str, Any]:
        """Submit one job and follow its SSE stream to the end."""
        workload, config, scale = job
        begin = time.perf_counter()
        receipt = self.client.submit(workload, retries=20, config=config,
                                     scale=scale, client="perfbench")
        submitted = time.perf_counter()
        if on_accepted is not None:
            on_accepted()
        coalesced = False
        terminal = None
        with ctx.span("service.wait"):
            for event in self.client.stream(receipt["id"]):
                data = event.get("data") or {}
                if event.get("event") == "queued" and data.get(
                        "coalesced_with"):
                    coalesced = True
                terminal = event
        return {"id": receipt["id"], "job": job,
                "latency": time.perf_counter() - begin,
                "submit_s": submitted - begin, "coalesced": coalesced,
                "terminal": terminal}

    def _client_loop(self, ctx, rng, jobs, lock, submitted, out, errors):
        try:
            while True:
                with lock:
                    if not jobs:
                        return
                    new_job = jobs.pop()
                    repeat_first = bool(submitted) and rng.random() < 0.5
                pair = []
                for repeat in ((True, False) if repeat_first
                               else (False, True)):
                    if repeat:
                        with lock:
                            job = rng.choice(submitted)
                        pair.append(self._submit(ctx, job))
                        continue

                    def accepted(job=new_job):
                        with lock:
                            submitted.append(job)

                    pair.append(self._submit(ctx, new_job, accepted))
                out.append(pair)
        except Exception as exc:  # noqa: BLE001 - reported by run_round
            errors.append(f"{type(exc).__name__}: {exc}")

    def run_round(self, ctx, rng, index):
        scale = self.SCALES[index]
        jobs = [(workload, config, scale) for workload in self.WORKLOADS
                for config in self.CONFIGS]
        rng.shuffle(jobs)
        self.unique_keys.update(jobs)
        gc.collect()
        # The ops of a round run concurrently, so they share the median
        # of several readings taken before it.
        ctx.probes += [host_probe() for _ in range(PROBES_PER_ROUND)]
        probe = len(ctx.probes) - PROBES_PER_ROUND // 2
        begin = time.perf_counter()
        lock = threading.Lock()
        submitted: List[Tuple[str, str, float]] = []
        pairs: List[List[Dict[str, Any]]] = []
        errors: List[str] = []
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(ctx, random.Random(rng.random()), jobs, lock,
                      submitted, pairs, errors),
                name=f"perfbench-client{i}")
            for i in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - begin
        records = [OpRecord("client-error", 0.0, ok=False, error=error,
                            probe=probe)
                   for error in errors]
        for pair in pairs:
            ok = True
            instrs = 0
            for sub in pair:
                ok = self._check(ctx, sub) and ok
                if not sub.get("hit"):
                    instrs += sub.get("instret", 0)
            key = "+".join(f"{s['job'][0]}/{s['job'][1]}" for s in pair)
            records.append(OpRecord(
                key, sum(s["latency"] for s in pair), instrs, ok=ok,
                error=None if ok else "result check failed",
                extra={"subs": pair}, probe=probe))
        return wall, records

    def _check(self, ctx: Context, sub: Dict[str, Any]) -> bool:
        terminal = sub["terminal"] or {}
        data = terminal.get("data") or {}
        result = data.get("result")
        if terminal.get("event") != "done" or not isinstance(result, dict):
            return False
        sub["from_cache"] = bool(result.get("from_cache"))
        sub["instret"] = int(result.get("instret", 0))
        sub["hit"] = sub["from_cache"] or sub["coalesced"]
        workload, config, scale = sub["job"]
        return ctx.check(self.name, f"{workload}/{config}/{scale}",
                         service_document(result))

    def finish(self, ctx, records):
        """Shard counters, and each submission's shard-side record."""
        from repro.service import ServiceClient

        for record in records:
            for sub in record.extra.get("subs", ()):
                sub["status"] = self.client.status(sub["id"])
        totals = {"unique_keys": len(self.unique_keys)}
        for url in self.shard_urls.values():
            counters = ServiceClient(url, timeout=30.0).metrics().get(
                "counters", {})
            for name in ("jobs_executed", "dedup_hits", "cache_hits",
                         "jobs_rejected"):
                totals[name] = totals.get(name, 0) + int(
                    counters.get(name, 0))
        return totals


WORKLOADS = {cls.name: cls for cls in (SweepGrid, PmuMulticore, HugeWindowed,
                                        ServiceGateway)}

