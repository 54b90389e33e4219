"""Thin HTTP front end for :class:`~repro.service.service.PPRService`.

Pure stdlib (:mod:`http.server` with the threading mixin — one thread
per connection, which is plenty because the real concurrency lives in
the micro-batching scheduler behind it).  Endpoints:

- ``POST /query``     — body ``{"kind": "source"|"target", "node": int,
  "alpha"?, "epsilon"?, "top"?}`` → top-k JSON;
- ``POST /topk``      — body ``{"node": int, "k": int, "alpha"?,
  "epsilon"?}`` → the k highest-PPR nodes with the early-termination
  verdict (``converged``, ``num_forests``);
- ``POST /multiseed`` — body ``{"seeds": [int, ...], "weights"?:
  [float, ...], "alpha"?, "epsilon"?, "top"?}`` → top-k of the
  seed-set personalization vector;
- ``POST /pair``      — body ``{"source": int, "target": int,
  "alpha"?, "epsilon"?}`` → one π(s, t) value;
- ``POST /mutate``    — body ``{"ops": [{"op": "add"|"remove"|
  "set_weight"|"upsert", "u": int, "v": int, "weight"?: float}, ...]}``
  → applies the edge updates to the served graph (dynamic banks repair
  incrementally, static banks rebuild) and reports per-bank
  generations plus the work counters;
- ``GET /healthz``    — liveness/readiness JSON;
- ``GET /metrics``    — Prometheus text format;
- ``GET /statusz``    — operational dashboard JSON (rolling windows,
  SLO burn-rate state, per-tenant and per-shard tables) — what
  ``repro top`` polls.

Request correlation: an inbound ``X-Request-Id`` header is propagated
into the trace/slow-log pipeline and echoed back; without one the
service mints an id and the response still carries it — on every
response, including 404s, 429s and 500s, so a client can always join
its failure records to the server-side slow log.  Tenant attribution:
an ``X-Tenant`` header (or ``?tenant=`` query parameter) labels the
request in the per-tenant metrics tables; it never changes the
answer.  Appending ``?debug=1`` to any POST route forces a trace and
inlines the span tree + work counters in the response's ``debug``
block.

Error mapping: malformed body or a field of the wrong JSON type → 400,
unknown path → 404, queue backpressure
(:class:`~repro.service.scheduler.SchedulerFull`) → 429 with a
``Retry-After`` header, configuration errors → 400, anything else →
500.  Responses are always JSON except ``/metrics``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import ReproError
from repro.obs.tracing import new_request_id
from repro.service.scheduler import SchedulerFull
from repro.service.service import PPRService

__all__ = ["PPRServiceServer", "make_server", "serve_forever"]

_MAX_BODY_BYTES = 1 << 20


class PPRServiceServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`PPRService` instance."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: PPRService):
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    server: PPRServiceServer
    protocol_version = "HTTP/1.1"

    # the default handler logs every request to stderr; route through
    # nothing — the service has /metrics for observability
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    # -- plumbing ------------------------------------------------------
    def _send(self, status: int, payload, *,
              content_type: str = "application/json",
              headers: dict[str, str] | None = None) -> None:
        body = (payload if isinstance(payload, bytes)
                else json.dumps(payload).encode())
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if not 0 < length <= _MAX_BODY_BYTES:
            raise ValueError(f"body length {length} outside "
                             f"(0, {_MAX_BODY_BYTES}]")
        payload = json.loads(self.rfile.read(length))
        if not isinstance(payload, dict):
            raise ValueError("body must be a JSON object")
        return payload

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        request_id = (self.headers.get("X-Request-Id")
                      or new_request_id())
        echo = {"X-Request-Id": request_id}
        route = _GET_ROUTES.get(urlsplit(self.path).path)
        if route is None:
            self._send(404, {"error": f"unknown path {self.path!r}"},
                       headers=echo)
            return
        method, content_type = route
        payload = getattr(self.server.service, method)()
        if isinstance(payload, str):
            payload = payload.encode()
        self._send(200, payload, content_type=content_type, headers=echo)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        split = urlsplit(self.path)
        # inbound correlation id (minted here when the client sent
        # none) — echoed on EVERY response below, 404s and errors
        # included, so clients can always correlate failures
        request_id = (self.headers.get("X-Request-Id")
                      or new_request_id())
        echo = {"X-Request-Id": request_id}
        route = _ROUTES.get(split.path)
        if route is None:
            self._send(404, {"error": f"unknown path {self.path!r}"},
                       headers=echo)
            return
        method, parse = route
        query_args = parse_qs(split.query)
        debug = query_args.get("debug", ["0"])[-1] not in ("", "0",
                                                           "false")
        tenant = (self.headers.get("X-Tenant")
                  or query_args.get("tenant", [None])[-1])
        try:
            # looked up by name, so wrappers installed on the service
            # class (tracing, profiling) see every call
            payload = getattr(self.server.service, method)(
                request_id=request_id, debug=debug,
                **parse(self._read_json(), tenant))
        except SchedulerFull as full:
            self._send(429, {"error": str(full),
                             "retry_after": full.retry_after},
                       headers={**echo, "Retry-After":
                                f"{max(full.retry_after, 0.001):.3f}"})
        except (KeyError, TypeError, ValueError,
                json.JSONDecodeError) as error:
            self._send(400, {"error": f"bad request: {error}"},
                       headers=echo)
        except ReproError as error:
            self._send(400, {"error": str(error)}, headers=echo)
        except Exception as error:  # pragma: no cover - defensive
            self._send(500, {"error": f"internal error: {error}"},
                       headers=echo)
        else:
            self._send(200, payload, headers=echo)


def _integer(value, name: str) -> int:
    """A JSON integer.  Bools and non-integral numbers are rejected,
    never coerced (``true`` is not node 1, ``1.9`` is not 1)."""
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _array(values, name: str) -> list:
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a JSON array, got {values!r}")
    return values


def _knobs(body: dict, tenant: str | None) -> dict:
    """The keyword arguments every query route shares."""
    return {key: None if body.get(key) is None else float(body[key])
            for key in ("alpha", "epsilon")} | {"tenant": tenant}


#: POST path → (:class:`PPRService` method, parser of the JSON body and
#: tenant label into that method's keyword arguments)
_ROUTES = {
    "/query": ("query", lambda body, tenant: {
        "kind": str(body.get("kind", "source")),
        "node": _integer(body["node"], "node"),
        "top": _integer(body.get("top", 10), "top"),
        **_knobs(body, tenant)}),
    "/topk": ("query_topk", lambda body, tenant: {
        "node": _integer(body["node"], "node"),
        "k": _integer(body["k"], "k"), **_knobs(body, tenant)}),
    "/multiseed": ("query_multiseed", lambda body, tenant: {
        "seeds": [_integer(seed, "seeds")
                  for seed in _array(body["seeds"], "seeds")],
        "weights": (None if body.get("weights") is None
                    else [float(weight) for weight
                          in _array(body["weights"], "weights")]),
        "top": _integer(body.get("top", 10), "top"),
        **_knobs(body, tenant)}),
    "/pair": ("pair", lambda body, tenant: {
        "source": _integer(body["source"], "source"),
        "target": _integer(body["target"], "target"),
        **_knobs(body, tenant)}),
    "/mutate": ("mutate", lambda body, tenant: {"ops": body["ops"]}),
}


#: GET path → (:class:`PPRService` method, content type of its answer);
#: like the POST routes, unknown query arguments are ignored
_GET_ROUTES = {
    "/healthz": ("healthz", "application/json"),
    "/metrics": ("metrics_text", "text/plain; version=0.0.4"),
    "/statusz": ("statusz", "application/json"),
}


def make_server(service: PPRService, host: str | None = None,
                port: int | None = None) -> PPRServiceServer:
    """Bind (without serving) — ``server.server_port`` has the real
    port when ``port=0`` asked the OS to pick one."""
    host = service.config.host if host is None else host
    port = service.config.port if port is None else port
    return PPRServiceServer((host, port), service)


def serve_forever(server: PPRServiceServer, *,
                  in_thread: bool = False) -> threading.Thread | None:
    """Run the accept loop, optionally on a daemon thread (tests)."""
    if in_thread:
        thread = threading.Thread(target=server.serve_forever,
                                  name="ppr-http", daemon=True)
        thread.start()
        return thread
    server.serve_forever()
    return None
