"""Gateway: one stateless front door for a shard cluster.

The gateway owns no queue and executes nothing.  It routes each
submission to the shard that owns the job's canonical key on the
consistent-hash ring (:mod:`repro.service.hashring`), fans design-space
grids out as per-shard sub-grids, aggregates status across the cluster,
relays SSE event streams, and survives shard failure by re-routing
accepted work to the surviving owners.

**Routing exactness.**  A job's canonical key lands on exactly one
shard, so the cluster-wide dedup story is the single-node one: every
duplicate of an analysis converges on the same scheduler.  Grid points
route by their *point job's* key — the same key a direct ``POST /jobs``
of that analysis would route by — so grids and individual submissions
coalesce shard-side exactly as they do on one node.

**Failure handling.**  Transport failures against a shard
(``ServiceError.status == 0``) feed a per-shard
:class:`~repro.reliability.breaker.CircuitBreaker`; when a shard's
breaker trips, the gateway *evicts* it — removes it from the ring and
resubmits every non-terminal route it owned to the new ring owners.
Results already completed live in the shared result store, so
re-routed duplicates are served from cache without re-execution;
``use_cache=False`` jobs re-execute (at-least-once on failover, by
design).  A graceful ``leave`` drains the shard first and immediately
resubmits the drain report's ``pending_jobs`` manifest, so rebalance
on planned departure loses nothing and waits for nothing.

**Backpressure.**  A 429 from the owner shard propagates to the caller
verbatim (with its ``Retry-After``): the owner being busy is not a
routing failure, and re-routing around it would break dedup exactness.

Gateway ids are composite — ``<shard>:<remote job id>`` as first
minted — and double as keys into a bounded soft-state route table that
tracks re-homing; a fresh gateway process can still resolve any
not-yet-rerouted id statelessly by parsing it.

**HTTP.**  :class:`GatewayRequestHandler` declares the gateway's routes
on the one HTTP layer in :mod:`repro.service.server` (body reader,
error contract, SSE head and cursor), and ``make_server`` /
``serve_in_thread`` serve a :class:`Gateway` as they serve a shard.
Membership administration takes ``{"id": ...}`` (plus ``"url"`` to
join) on ``POST /admin/join``, ``/admin/leave`` and ``/admin/evict``.
"""

from __future__ import annotations

import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import __version__
from ..reliability.breaker import CircuitBreaker
from .client import ServiceClient, ServiceError, http_error
from .hashring import HashRing, parse_shard_spec
from .job import GridJob, JobValidationError, MulticoreJob, TMAJob
from .metrics import MetricsRegistry, merge_snapshots
from .server import JsonRequestHandler, ServiceServer, serve_in_thread

#: Cluster spec default for ``repro-tma gateway --shards``:
#: ``REPRO_SHARDS="s1=http://h:p,s2=http://h:p"``.
SHARDS_ENV = "REPRO_SHARDS"

#: Bound on retained job routes (terminal routes are pruned oldest
#: first past this; live routes always survive).
DEFAULT_ROUTE_RETENTION = 4096

#: Bound on retained grid routes.
DEFAULT_GRID_ROUTE_RETENTION = 512

#: Consecutive transport failures before a shard is evicted.
DEFAULT_EVICT_THRESHOLD = 2


@dataclass
class JobRoute:
    """Where one accepted submission currently lives."""

    id: str
    shard_id: str
    remote_id: str
    path: str               # "/jobs" | "/multicore"
    body: Dict[str, Any]    # original submission, for re-routing
    job_key: str
    terminal: bool = False
    #: True once the job has been re-homed off its original shard; the
    #: SSE relay then ignores stale client cursors (the new record's
    #: journal restarts its sequence numbers).
    rerouted: bool = False


@dataclass
class GridPart:
    """One shard's slice of a fanned-out grid."""

    shard_id: str
    remote_id: str
    keys: List[str]


@dataclass
class GridRoute:
    """Cluster-wide index of one grid submission."""

    id: str
    grid_key: str
    workload: str
    scale: float
    client: str
    point_keys: List[str]
    #: Shared template fields, used to rebuild per-point jobs (routing
    #: keys) and per-shard sub-grid bodies during re-routing.
    template: Dict[str, Any]
    parts: List[GridPart] = field(default_factory=list)
    accepted: bool = True
    submitted_at: float = field(default_factory=time.time)


class Gateway:
    """Routing + aggregation facade over a cluster of shard servers."""

    def __init__(self, shards: Any,
                 client_factory: Callable[[str], ServiceClient]
                 = ServiceClient,
                 evict_threshold: int = DEFAULT_EVICT_THRESHOLD,
                 breaker_cooldown: float = 30.0,
                 route_retention: int = DEFAULT_ROUTE_RETENTION) -> None:
        if isinstance(shards, str):
            shards = parse_shard_spec(shards)
        if not shards:
            raise ValueError("gateway needs at least one shard")
        self.urls: Dict[str, str] = dict(shards)
        self.clients: Dict[str, ServiceClient] = {
            shard_id: client_factory(url)
            for shard_id, url in self.urls.items()
        }
        self._client_factory = client_factory
        self.ring = HashRing(self.clients)
        self.breaker = CircuitBreaker(failure_threshold=evict_threshold,
                                      cooldown=breaker_cooldown)
        self.metrics = MetricsRegistry()
        self.route_retention = route_retention
        self._lock = threading.RLock()
        self._routes: Dict[str, JobRoute] = {}
        self._grids: Dict[str, GridRoute] = {}
        self._grid_sequence = 0
        self.started_at = time.time()

    # ------------------------------------------------------------------
    # Shard liveness

    def _live_shards(self) -> List[str]:
        with self._lock:
            return sorted(self.clients)

    def _owner_order(self, job_key: str,
                     avoid: Optional[set] = None) -> List[str]:
        """Owner-first failover order, skipping known-down shards.

        Shards whose breaker is open are deprioritised, not removed:
        if every owner is suspect, the original order stands (a
        half-open probe may revive one).
        """
        with self._lock:
            if not len(self.ring):
                raise ServiceError(0, {"error": "cluster has no shards"})
            order = self.ring.owners(job_key, len(self.ring))
        if avoid:
            order = [s for s in order if s not in avoid] or order
        healthy = [s for s in order if self.breaker.allow(s)]
        return healthy or order

    def _note_shard_failure(self, shard_id: str) -> None:
        """Count one transport failure; evict the shard on trip."""
        self.metrics.inc("shard_transport_failures")
        self.breaker.record_failure(shard_id)
        if not self.breaker.allow(shard_id):
            with self._lock:
                still_member = shard_id in self.clients
            if still_member:
                self.evict(shard_id)

    # ------------------------------------------------------------------
    # Job routing

    @staticmethod
    def _strip_meta(body: Dict[str, Any]) -> Dict[str, Any]:
        return {key: value for key, value in body.items()
                if key not in ("client", "priority")}

    def _route_submit(self, path: str, body: Dict[str, Any],
                      job_key: str) -> Tuple[Dict[str, Any], str]:
        """Submit to the owner, walking the failover order on dead shards.

        429s propagate (backpressure is the owner's honest answer);
        only transport failures advance to the next owner.
        """
        last_error: Optional[ServiceError] = None
        for shard_id in self._owner_order(job_key):
            with self._lock:
                client = self.clients.get(shard_id)
            if client is None:
                continue  # evicted while we walked the order
            try:
                receipt = client.submit_to(path, body)
            except ServiceError as exc:
                if exc.status == 0:
                    last_error = exc
                    self._note_shard_failure(shard_id)
                    continue
                raise
            self.breaker.record_success(shard_id)
            return receipt, shard_id
        raise last_error or ServiceError(
            0, {"error": "no shards reachable"})

    def submit_payload(self, payload: Dict[str, Any],
                       multicore: bool = False) -> Dict[str, Any]:
        if not isinstance(payload, dict):
            raise JobValidationError("submission must be a JSON object")
        body = dict(payload)
        job_cls = MulticoreJob if multicore else TMAJob
        job = job_cls.from_payload(self._strip_meta(body))
        path = "/multicore" if multicore else "/jobs"
        receipt, shard_id = self._route_submit(path, body, job.job_key())
        route = JobRoute(id=f"{shard_id}:{receipt['id']}",
                         shard_id=shard_id, remote_id=receipt["id"],
                         path=path, body=body, job_key=job.job_key())
        with self._lock:
            self._routes[route.id] = route
            self._prune_routes_locked()
        self.metrics.inc("routed_jobs")
        return dict(receipt, id=route.id, shard=shard_id)

    def submit_multicore_payload(self,
                                 payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.submit_payload(payload, multicore=True)

    def _prune_routes_locked(self) -> None:
        excess = len(self._routes) - self.route_retention
        if excess <= 0:
            return
        victims = [route_id for route_id, route in self._routes.items()
                   if route.terminal][:excess]
        for route_id in victims:
            del self._routes[route_id]
        while len(self._grids) > DEFAULT_GRID_ROUTE_RETENTION:
            del self._grids[next(iter(self._grids))]

    def _resolve_route(self, gateway_id: str) -> Optional[JobRoute]:
        with self._lock:
            route = self._routes.get(gateway_id)
            if route is not None:
                return route
        # Stateless fallback: a fresh gateway (or one that pruned the
        # route) can still resolve a never-rerouted composite id.
        shard_id, _, remote_id = gateway_id.partition(":")
        with self._lock:
            known = shard_id in self.clients
        if not known or not remote_id:
            return None
        return JobRoute(id=gateway_id, shard_id=shard_id,
                        remote_id=remote_id, path="/jobs", body={},
                        job_key="")

    def status(self, gateway_id: str) -> Optional[Dict[str, Any]]:
        route = self._resolve_route(gateway_id)
        if route is None:
            return None
        with self._lock:
            client = self.clients.get(route.shard_id)
        if client is None and route.body:
            # Owner is gone but we still hold the original submission:
            # re-home on demand.  This is how *terminal* routes survive
            # a leave/evict (the bulk reroute deliberately skips them):
            # resubmission is a shared-store cache hit, so the new
            # owner answers with the completed result immediately.
            try:
                receipt, new_shard = self._route_submit(
                    route.path, route.body, route.job_key)
            except ServiceError:
                receipt, new_shard = None, None
            if receipt is not None:
                with self._lock:
                    route.shard_id = new_shard
                    route.remote_id = receipt["id"]
                    route.rerouted = True
                    route.terminal = False
                    client = self.clients.get(new_shard)
                self.metrics.inc("jobs_rerouted")
        if client is None:
            # Reroute has not landed (or the cluster is fully down):
            # report the route as still moving rather than lying.
            return {"id": gateway_id, "state": "running",
                    "shard": route.shard_id, "degraded": "rerouting"}
        try:
            payload = client.status(route.remote_id)
        except ServiceError as exc:
            if exc.status == 0:
                # Shard unreachable: keep pollers polling while the
                # breaker decides; eviction will re-home the route.
                self._note_shard_failure(route.shard_id)
                return {"id": gateway_id, "state": "running",
                        "shard": route.shard_id,
                        "degraded": "shard unreachable"}
            if exc.status == 404:
                return None
            raise
        self.breaker.record_success(route.shard_id)
        if payload.get("state") in ("done", "failed", "rejected",
                                    "quarantined"):
            route.terminal = True
        return dict(payload, id=gateway_id, shard=route.shard_id)

    # ------------------------------------------------------------------
    # Grid fan-out

    def _point_jobs(self, template: Dict[str, Any],
                    keys: List[str]) -> Dict[str, str]:
        """point key → canonical job key under *template*."""
        mapping: Dict[str, str] = {}
        for key in keys:
            job = TMAJob.from_payload(dict(template, config=key))
            mapping[key] = job.job_key()
        return mapping

    def _place_grid_parts(self, template: Dict[str, Any],
                          keys: List[str],
                          client_meta: Dict[str, Any]) -> List[GridPart]:
        """Place point keys on owner shards as sub-grid submissions.

        Keys group by the ring owner of their point job's key; a shard
        that fails at transport level drops out of the placement
        (``down``) and its keys regroup on the surviving owners next
        round.  Raises when no shard can take a group.
        """
        job_keys = self._point_jobs(template, keys)
        unplaced = dict(job_keys)
        down: set = set()
        parts: List[GridPart] = []
        for _ in range(len(self._live_shards()) + 2):
            if not unplaced:
                break
            groups: Dict[str, List[str]] = {}
            for point_key, job_key in unplaced.items():
                owner = self._owner_order(job_key, avoid=down)[0]
                groups.setdefault(owner, []).append(point_key)
            next_unplaced: Dict[str, str] = {}
            for shard_id in sorted(groups):
                group = groups[shard_id]
                with self._lock:
                    client = self.clients.get(shard_id)
                if client is None:
                    down.add(shard_id)
                    for key in group:
                        next_unplaced[key] = unplaced[key]
                    continue
                fields = dict(self._strip_meta(template), **client_meta,
                              grid=",".join(group), vary=[])
                fields.pop("workload", None)
                fields.pop("config", None)
                try:
                    receipt = client.submit_grid(template["workload"],
                                                 **fields)
                except ServiceError as exc:
                    if exc.status == 0:
                        self._note_shard_failure(shard_id)
                        down.add(shard_id)
                        for key in group:
                            next_unplaced[key] = unplaced[key]
                        continue
                    raise
                self.breaker.record_success(shard_id)
                parts.append(GridPart(shard_id=shard_id,
                                      remote_id=receipt["id"],
                                      keys=list(group)))
            unplaced = next_unplaced
        if unplaced:
            raise ServiceError(
                0, {"error": f"no shards reachable for "
                             f"{len(unplaced)} grid points"})
        return parts

    def submit_grid_payload(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Fan one grid across the cluster as per-shard sub-grids.

        Admission is atomic *per shard* (each sub-grid is all-or-
        nothing on its owner), not cluster-global: a 429 from any
        owner propagates after the other sub-grids were accepted.
        Retrying the whole grid is still safe and cheap — already-
        accepted points coalesce or serve from the shared store.
        """
        if not isinstance(payload, dict):
            raise JobValidationError("submission must be a JSON object")
        body = dict(payload)
        grid_job = GridJob.from_payload(self._strip_meta(body))
        points = grid_job.points()
        # The template is the grid body minus the grid/vary axes: each
        # point key is self-describing, so sub-grids list point keys
        # explicitly and vary collapses to nothing.
        template = {key: value
                    for key, value in grid_job.to_payload().items()
                    if key not in ("grid", "vary")}
        client_meta = {key: body[key] for key in ("client", "priority")
                      if key in body}
        parts = self._place_grid_parts(template,
                                       [point.key for point in points],
                                       client_meta)
        with self._lock:
            self._grid_sequence += 1
            grid_id = f"grid-gw-{self._grid_sequence:04d}"
            route = GridRoute(
                id=grid_id, grid_key=grid_job.grid_key(),
                workload=grid_job.workload, scale=grid_job.scale,
                client=str(body.get("client", "anonymous")),
                point_keys=[point.key for point in points],
                template=template, parts=parts)
            self._grids[grid_id] = route
        self.metrics.inc("routed_grids")
        self.metrics.inc("routed_grid_points", len(points))
        return {
            "id": grid_id,
            "grid_key": route.grid_key,
            "workload": route.workload,
            "points": len(points),
            "parts": {part.shard_id: part.remote_id for part in parts},
        }

    def grid_status(self, grid_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            route = self._grids.get(grid_id)
            if route is None:
                return None
            parts = list(route.parts)
        points: Dict[str, Any] = {}
        states: List[str] = []
        for part in parts:
            with self._lock:
                client = self.clients.get(part.shard_id)
            payload = None
            if client is not None:
                try:
                    payload = client.grid_status(part.remote_id)
                except ServiceError as exc:
                    if exc.status == 0:
                        self._note_shard_failure(part.shard_id)
                    payload = None
            if payload is None:
                for key in part.keys:
                    points[key] = {"state": "running",
                                   "degraded": "shard unreachable"}
                    states.append("running")
                continue
            for key, entry in payload.get("points", {}).items():
                points[key] = dict(entry, shard=part.shard_id)
                states.append(entry.get("state", "running"))
        terminal = ("done", "failed", "rejected", "quarantined", "evicted")
        if states and all(state == "done" for state in states):
            state = "done"
        elif states and all(state in terminal for state in states):
            state = "failed"
        else:
            state = "running"
        return {
            "id": grid_id,
            "grid_key": route.grid_key,
            "workload": route.workload,
            "scale": route.scale,
            "client": route.client,
            "state": state,
            "accepted": route.accepted,
            "submitted_at": route.submitted_at,
            "points": points,
            "parts": {part.shard_id: part.remote_id for part in parts},
        }

    # ------------------------------------------------------------------
    # Membership: join / leave / evict and re-routing

    def join(self, shard_id: str, url: str) -> Dict[str, Any]:
        """Add a shard to the ring.

        Rebalance semantics: only *future* submissions whose keys now
        hash to the new member route there; routed in-flight records
        stay on their current owner, and every completed result remains
        servable by any member through the shared result store.
        """
        with self._lock:
            if shard_id in self.clients:
                raise JobValidationError(
                    f"shard {shard_id!r} is already a member")
            self.urls[shard_id] = url.rstrip("/")
            self.clients[shard_id] = self._client_factory(self.urls[shard_id])
            self.ring.add(shard_id)
        self.breaker.record_success(shard_id)
        self.metrics.inc("shard_joins")
        return self.topology()

    def leave(self, shard_id: str) -> Dict[str, Any]:
        """Gracefully remove a shard: drain it, then adopt its pending.

        The drain report's ``pending_jobs`` manifest is resubmitted to
        the surviving owners immediately — planned departure rebalances
        queued work with zero loss and zero restart-wait.
        """
        with self._lock:
            client = self.clients.get(shard_id)
        if client is None:
            raise JobValidationError(f"unknown shard {shard_id!r}")
        try:
            report = client.drain()
        except ServiceError:
            report = {"state": "unreachable", "pending_jobs": []}
        self._remove_member(shard_id)
        adopted = 0
        for job_payload in report.get("pending_jobs", []):
            try:
                self.submit_payload(
                    job_payload,
                    multicore=(isinstance(job_payload, dict)
                               and job_payload.get("type") == "multicore"))
                adopted += 1
            except ServiceError:
                continue  # counted by the zero-loss audit, not hidden
        self._reroute_from(shard_id)
        self.metrics.inc("shard_leaves")
        self.metrics.inc("jobs_adopted", adopted)
        return dict(self.topology(), drain=report, adopted=adopted)

    def evict(self, shard_id: str) -> Dict[str, Any]:
        """Hard-remove a dead shard and re-home everything it owned."""
        self._remove_member(shard_id)
        self.metrics.inc("shard_evictions")
        self._reroute_from(shard_id)
        return self.topology()

    def _remove_member(self, shard_id: str) -> None:
        with self._lock:
            self.clients.pop(shard_id, None)
            self.urls.pop(shard_id, None)
            if shard_id in self.ring:
                self.ring.remove(shard_id)

    def _reroute_from(self, shard_id: str) -> None:
        """Resubmit every non-terminal route the shard owned.

        Completed analyses re-serve from the shared result store on
        their new owner; genuinely pending ones re-execute there.
        Routes that cannot be placed (cluster-wide outage) keep their
        stale owner and surface as ``degraded`` in status.
        """
        with self._lock:
            job_routes = [route for route in self._routes.values()
                          if route.shard_id == shard_id
                          and not route.terminal and route.body]
            grid_routes = [
                (grid, [part for part in grid.parts
                        if part.shard_id == shard_id])
                for grid in self._grids.values()
            ]
        for route in job_routes:
            try:
                receipt, new_shard = self._route_submit(
                    route.path, route.body, route.job_key)
            except ServiceError:
                continue
            with self._lock:
                route.shard_id = new_shard
                route.remote_id = receipt["id"]
                route.rerouted = True
            self.metrics.inc("jobs_rerouted")
        for grid, dead_parts in grid_routes:
            if not dead_parts:
                continue
            keys = [key for part in dead_parts for key in part.keys]
            try:
                new_parts = self._place_grid_parts(
                    grid.template, keys, {"client": grid.client})
            except ServiceError:
                continue
            with self._lock:
                grid.parts = [part for part in grid.parts
                              if part.shard_id != shard_id] + new_parts
            self.metrics.inc("grid_parts_rerouted", len(new_parts))

    # ------------------------------------------------------------------
    # Streaming relay

    def stream_source(self, gateway_id: str) -> Optional[Tuple[str, str, bool]]:
        """(shard base URL, remote job id, drop_cursor) for the relay."""
        route = self._resolve_route(gateway_id)
        if route is None:
            return None
        with self._lock:
            url = self.urls.get(route.shard_id)
        if url is None:
            return None
        return url, route.remote_id, route.rerouted

    # ------------------------------------------------------------------
    # Aggregation and admin

    def topology(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "ring": self.ring.to_payload(),
                "shards": dict(sorted(self.urls.items())),
            }

    def healthz(self) -> Dict[str, Any]:
        shards: Dict[str, Any] = {}
        for shard_id in self._live_shards():
            with self._lock:
                client = self.clients.get(shard_id)
            if client is None:
                continue
            try:
                shards[shard_id] = client.healthz()
                self.breaker.record_success(shard_id)
            except ServiceError as exc:
                shards[shard_id] = {"status": "unreachable",
                                    "error": str(exc)}
        return {
            "status": "ok",
            "role": "gateway",
            "version": __version__,
            "ring": self.ring.to_payload(),
            "breaker_open": sorted(self.breaker.open_keys()),
            "shards": shards,
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        shard_snapshots: Dict[str, Any] = {}
        for shard_id in self._live_shards():
            with self._lock:
                client = self.clients.get(shard_id)
            if client is None:
                continue
            try:
                shard_snapshots[shard_id] = client.metrics()
            except ServiceError as exc:
                shard_snapshots[shard_id] = {"error": str(exc)}
        live = [snapshot for snapshot in shard_snapshots.values()
                if "counters" in snapshot]
        gateway = self.metrics.snapshot()
        gateway["uptime_seconds"] = round(time.time() - self.started_at, 3)
        return {
            "role": "gateway",
            "gateway": gateway,
            "cluster": merge_snapshots(live),
            "shards": shard_snapshots,
        }

    def drain_all(self) -> Dict[str, Any]:
        reports: Dict[str, Any] = {}
        for shard_id in self._live_shards():
            with self._lock:
                client = self.clients.get(shard_id)
            if client is None:
                continue
            try:
                reports[shard_id] = client.drain()
            except ServiceError as exc:
                reports[shard_id] = {"state": "unreachable",
                                     "error": str(exc)}
        return {"state": "drained", "shards": reports}


# ---------------------------------------------------------------------------
# HTTP front


class GatewayRequestHandler(JsonRequestHandler):
    """The gateway's routes into its :class:`Gateway`."""

    server_version = "repro-tma-gateway/1.0"
    routes = (
        ("POST", "/jobs", "_post_jobs"),
        ("POST", "/multicore", "_post_multicore"),
        ("POST", "/grids", "_post_grids"),
        ("GET", "/jobs/<id>/events", "_relay_events"),
        ("GET", "/jobs/<id>", "_get_job"),
        ("GET", "/grids/<id>", "_get_grid"),
        ("GET", "/metrics", "_get_metrics"),
        ("GET", "/healthz", "_get_healthz"),
        ("POST", "/admin/drain", "_post_drain"),
        ("POST", "/admin/join", "_post_join"),
        ("POST", "/admin/leave", "_post_leave"),
        ("POST", "/admin/evict", "_post_evict"),
    )

    def _post_jobs(self) -> None:
        self.send_json(202, self.app.submit_payload(self.read_json_body()))

    def _post_multicore(self) -> None:
        self.send_json(202, self.app.submit_payload(self.read_json_body(),
                                                    multicore=True))

    def _post_grids(self) -> None:
        self.send_json(202,
                       self.app.submit_grid_payload(self.read_json_body()))

    def _post_drain(self) -> None:
        self.send_json(200, self.app.drain_all())

    def _post_join(self) -> None:
        body = self.read_json_body()
        if not body.get("id") or not body.get("url"):
            raise JobValidationError("join requires 'id' and 'url'")
        self.send_json(200, self.app.join(str(body["id"]), str(body["url"])))

    def _post_leave(self) -> None:
        self.send_json(200, self.app.leave(self._member_id("leave")))

    def _post_evict(self) -> None:
        self.send_json(200, self.app.evict(self._member_id("evict")))

    def _member_id(self, action: str) -> str:
        body = self.read_json_body()
        if not body.get("id"):
            raise JobValidationError(f"{action} requires 'id'")
        return str(body["id"])

    def _relay_events(self, gateway_id: str) -> None:
        """Byte-wise SSE relay from the owning shard.

        The relay holds no journal: it copies the shard's stream line
        by line.  If the hop dies mid-stream the client's own
        reconnect logic resumes — by then the route may point at a new
        shard (after eviction), whose journal restarts sequence
        numbers, so rerouted relays drop the stale client cursor and
        replay the new record's lifecycle from the top (the terminal
        event still arrives exactly once: the dead shard never sent
        one).
        """
        source = self.app.stream_source(gateway_id)
        if source is None:
            self.send_json(404, {"error": f"unknown job {gateway_id!r}"})
            return
        base_url, remote_id, drop_cursor = source
        after = 0 if drop_cursor else self.event_cursor()
        request = urllib.request.Request(
            f"{base_url}/jobs/{remote_id}/events?after={after}",
            headers={"Accept": "text/event-stream"})
        try:
            upstream = urllib.request.urlopen(request, timeout=30.0)
        except urllib.error.HTTPError as exc:
            raise http_error(exc) from None
        except (urllib.error.URLError, OSError) as exc:
            self.send_json(503, {"error": f"shard stream failed: {exc}"})
            return
        self.start_event_stream()
        try:
            with upstream:
                for line in upstream:
                    self.wfile.write(line)
                    if line == b"\n":  # frame boundary: push it out
                        self.wfile.flush()
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            return


def serve_gateway_in_thread(
    gateway: Gateway, host: str = "127.0.0.1", port: int = 0,
) -> Tuple[ServiceServer, threading.Thread]:
    """:func:`serve_in_thread`, kept for callers that import this name."""
    return serve_in_thread(gateway, host=host, port=port)


__all__ = [
    "Gateway",
    "GridPart",
    "GridRoute",
    "JobRoute",
    "SHARDS_ENV",
    "serve_gateway_in_thread",
]
