"""One stdlib JSON-over-HTTP layer for both service fronts.

A shard (:class:`TMAService`) and the gateway
(:class:`~repro.service.gateway.Gateway`) speak the same protocol, so
they share one request handler base, :class:`JsonRequestHandler`, and
declare only their own routes.  The base owns:

- quiet logging (``verbose`` turns the stderr access log on);
- JSON responses and the SSE response head;
- the body reader: every request's body is read before routing; it
  needs an integer ``Content-Length`` from 0 to :data:`MAX_BODY_BYTES`,
  and a route that reads JSON needs an object; anything else is a 400;
- the ``?after=`` / ``Last-Event-ID`` event-stream cursor;
- the error contract: a :class:`JobValidationError` gives 400, a 429
  passes through with its ``Retry-After``, a transport failure
  (``ServiceError.status == 0``) gives 503, and any other
  :class:`ServiceError` passes its status and body through.

Shard endpoints::

    POST /jobs          submit a job            -> 202 receipt
                        (429 + Retry-After on backpressure,
                         400 on validation errors)
    POST /multicore     submit a multicore      -> 202 receipt (same
                        scenario job             contract as /jobs)
    GET  /jobs/<id>     job status + result     -> 200 | 404
    GET  /jobs/<id>/events  lifecycle SSE       -> 200 stream | 404
    POST /grids         submit a design-space   -> 202 grid receipt
                        grid (fans out into      (429 when the whole
                        per-point jobs)          grid cannot be
                                                 admitted atomically)
    GET  /grids/<id>    aggregated grid status  -> 200 | 404
    GET  /metrics       metrics snapshot        -> 200
    GET  /healthz       liveness + drain state  -> 200
    POST /admin/drain   graceful drain          -> 200 drain report
    GET  /admin/records record summaries        -> 200

Built on :class:`http.server.ThreadingHTTPServer` so the API stays
dependency-free; each request handler thread calls straight into the
thread-safe facade.  ``serve_forever`` runs until ``shutdown()`` — the
CLI wires SIGINT/SIGTERM to a drain-then-shutdown sequence so Ctrl-C
never drops accepted jobs.
"""

from __future__ import annotations

import functools
import json
import re
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from .app import TMAService
from .client import JobRejected, ServiceError
from .job import JobValidationError
from .stream import sse_encode, sse_keepalive

#: Bodies above this size are rejected outright (400): job payloads
#: are a few hundred bytes, so anything huge is abuse or error.
MAX_BODY_BYTES = 64 * 1024


class JsonRequestHandler(BaseHTTPRequestHandler):
    """The protocol both fronts share; subclasses declare ``routes``."""

    protocol_version = "HTTP/1.1"
    # The head and the body go out in two writes.  On a kept-alive
    # connection Nagle's algorithm holds the second until the client
    # ACKs the first, which a delayed ACK puts off by ~40 ms.
    disable_nagle_algorithm = True

    #: ``(method, path template, handler method)``, matched in order
    #: against the path without its query string.  ``<id>`` matches
    #: any text, which is passed to the handler.
    routes: Tuple[Tuple[str, str, str], ...] = ()

    #: The request's query string and body, set before routing.
    query = ""
    body = b""

    # Quiet by default; the service's metrics are the observability
    # surface, not an access log on stderr.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    @property
    def app(self) -> Any:
        return self.server.app  # type: ignore[attr-defined]

    @classmethod
    def banner(cls) -> str:
        """The served routes as one line, in match order."""
        return " · ".join(f"{method} {template}"
                          for method, template, _ in cls.routes)

    # ------------------------------------------------------------------

    def send_json(self, status: int, payload: Dict[str, Any],
                  headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        """Read the request body, before routing.

        Whichever route answers, or none, nothing is left on the
        connection to be parsed as the next request.
        """
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot carry
            # another request.
            self.close_connection = True
            raise JobValidationError(
                f"Content-Length must be an integer in "
                f"[0, {MAX_BODY_BYTES}], got {raw_length!r}")
        return self.rfile.read(length)

    def read_json_body(self) -> Dict[str, Any]:
        """The request body as a JSON object (an empty body is ``{}``)."""
        try:
            payload = json.loads(self.body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, ValueError) as exc:
            raise JobValidationError(f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise JobValidationError("body must be a JSON object")
        return payload

    def event_cursor(self) -> int:
        """The client's stream cursor: ``?after=``, else ``Last-Event-ID``."""
        params = urllib.parse.parse_qs(self.query)
        if params.get("after"):
            try:
                return int(params["after"][0])
            except ValueError:
                raise JobValidationError(
                    "after must be an integer") from None
        try:
            return int(self.headers.get("Last-Event-ID") or 0)
        except ValueError:
            return 0

    def start_event_stream(self) -> None:
        """Send an SSE response head.

        The body is unframed (``Connection: close`` delimits it),
        because events are produced until a terminal one and a
        streamed body cannot carry Content-Length.
        """
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True

    # ------------------------------------------------------------------
    # Routes both fronts serve the same way

    def _get_job(self, job_id: str) -> None:
        self._send_found(self.app.status(job_id), f"unknown job {job_id!r}")

    def _get_grid(self, grid_id: str) -> None:
        self._send_found(self.app.grid_status(grid_id),
                         f"unknown grid {grid_id!r}")

    def _get_metrics(self) -> None:
        self.send_json(200, self.app.metrics_snapshot())

    def _get_healthz(self) -> None:
        self.send_json(200, self.app.healthz())

    def _send_found(self, payload: Optional[Dict[str, Any]],
                    error: str) -> None:
        if payload is None:
            self.send_json(404, {"error": error})
        else:
            self.send_json(200, payload)

    # ------------------------------------------------------------------

    def _dispatch(self, method: str) -> None:
        path, _, self.query = self.path.partition("?")
        try:
            self.body = self._read_body()
            for route_method, template, handler in self.routes:
                match = (route_method == method
                         and _pattern(template).fullmatch(path))
                if match:
                    getattr(self, handler)(*match.groups())
                    return
            self.send_json(404, {"error": f"no such endpoint {self.path}"})
        except JobValidationError as exc:
            self.send_json(400, {"error": str(exc)})
        except ServiceError as exc:
            if exc.status == 429:
                retry_after = float(exc.payload.get("retry_after", 1.0))
                self.send_json(429, dict(exc.payload),
                               headers={"Retry-After": f"{retry_after:.3f}"})
            elif exc.status == 0:
                self.send_json(503, {"error": str(exc)})
            else:
                self.send_json(exc.status, dict(exc.payload))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")


@functools.lru_cache(maxsize=None)
def _pattern(template: str) -> "re.Pattern[str]":
    return re.compile(re.escape(template).replace("<id>", "(.*)"))


class ServiceRequestHandler(JsonRequestHandler):
    """A shard's routes into its :class:`TMAService`."""

    server_version = "repro-tma-service/1.1"
    routes = (
        ("POST", "/jobs", "_post_jobs"),
        ("POST", "/multicore", "_post_multicore"),
        ("POST", "/grids", "_post_grids"),
        ("GET", "/jobs/<id>/events", "_stream_events"),
        ("GET", "/jobs/<id>", "_get_job"),
        ("GET", "/grids/<id>", "_get_grid"),
        ("GET", "/metrics", "_get_metrics"),
        ("GET", "/healthz", "_get_healthz"),
        ("POST", "/admin/drain", "_post_drain"),
        ("GET", "/admin/records", "_get_records"),
    )

    def _post_jobs(self, multicore: bool = False) -> None:
        payload = self.read_json_body()
        submit = (self.app.submit_multicore_payload if multicore
                  else self.app.submit_payload)
        receipt = submit(payload)
        record = receipt.record
        if not receipt.accepted:
            raise JobRejected(429, {
                "error": record.error or "queue full",
                "id": record.id,
                "retry_after": receipt.retry_after or 1.0,
                "queue_depth": receipt.queue_depth})
        self.send_json(202, {
            "id": record.id,
            "state": record.state,
            "job_key": record.job_key,
            "deduped": receipt.deduped,
            "coalesced_with": record.coalesced_with,
            "queue_depth": receipt.queue_depth,
        })

    def _post_multicore(self) -> None:
        self._post_jobs(multicore=True)

    def _post_grids(self) -> None:
        grid = self.app.submit_grid_payload(self.read_json_body())
        summary = {
            "id": grid.id,
            "grid_key": grid.key,
            "workload": grid.workload,
            "points": len(grid.point_keys),
            "point_records": dict(grid.point_record_ids),
            "coalesced_with": grid.coalesced_with,
        }
        if not grid.accepted:
            summary["error"] = "grid could not be admitted atomically"
            summary["retry_after"] = self.app._retry_after_estimate()
            raise JobRejected(429, summary)
        self.send_json(202, summary)

    def _post_drain(self) -> None:
        self.send_json(200, self.app.drain())

    def _get_records(self) -> None:
        # Topology audit surface: the shard smoke asserts "each job
        # key observed on exactly one shard" from these summaries.
        records = [
            {"id": record.id, "job_key": record.job_key,
             "state": record.state, "client": record.client}
            for record in self.app.records()
        ]
        self.send_json(200, {"records": records})

    def _stream_events(self, job_id: str) -> None:
        """Stream a job's lifecycle events from the cursor on.

        The cursor skips events the client already saw, so the
        terminal event is delivered exactly once per cursor.
        """
        last = self.event_cursor()
        service = self.app
        if (service.status(job_id) is None
                and not service.events.known(job_id)):
            self.send_json(404, {"error": f"unknown job {job_id!r}"})
            return
        self.start_event_stream()
        finished = False
        try:
            while not finished:
                events = service.events.wait(job_id, after=last,
                                             timeout=0.25)
                if not events:
                    if service.events.finished(job_id):
                        break  # resumed past the terminal event
                    self.wfile.write(sse_keepalive())
                    self.wfile.flush()
                    continue
                for event in events:
                    self.wfile.write(sse_encode(event))
                    last = event.seq
                    if event.terminal:
                        finished = True
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away; it can resume from its cursor


def _handler_for(app: Any) -> type:
    if isinstance(app, TMAService):
        return ServiceRequestHandler
    # The gateway module imports this one, so it is imported late.
    from .gateway import Gateway, GatewayRequestHandler
    if isinstance(app, Gateway):
        return GatewayRequestHandler
    raise TypeError(f"cannot serve {type(app).__name__}")


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer over a :class:`TMAService` or a ``Gateway``."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], app: Any,
                 verbose: bool = False) -> None:
        super().__init__(address, _handler_for(app))
        self.app = app
        self.verbose = verbose


def make_server(app: Any, host: str = "127.0.0.1", port: int = 0,
                verbose: bool = False) -> ServiceServer:
    """Bind (port 0 = ephemeral) but do not start serving yet."""
    return ServiceServer((host, port), app, verbose=verbose)


def serve_in_thread(app: Any, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[ServiceServer, threading.Thread]:
    """Start a server on a daemon thread; returns (server, thread).

    Used by tests and the smoke scripts; the CLI runs
    ``serve_forever`` on the main thread instead.
    """
    server = make_server(app, host=host, port=port)
    thread = threading.Thread(target=server.serve_forever,
                              name="tma-http", daemon=True)
    thread.start()
    return server, thread
