"""A stdlib JSON-over-HTTP front door for the reachability service.

``ThreadingHTTPServer`` gives one thread per *connection*, and a
connection is a loop: the server speaks HTTP/1.1 keep-alive, so a client
that reuses its socket pays the connect, the accept and the thread spawn
once, not around every 8 µs ``reach_ex``.  Every request thread is a
lock-free snapshot reader, and ``POST /update`` funnels into the
engine's single-writer path.  The loop is framed exactly — every
response carries ``Content-Length`` and is one ``write``; a response
sent while the request's declared body is unread, any response while
draining and every protocol-level refusal say ``Connection: close`` and
end the connection — and parses each request once (docs/SERVICE.md,
"Connections").  Admission counts *requests*: an idle connection holds a
thread, never a slot.

Routes
------
``GET /healthz``
    Pure liveness: ``{"status": "ok", "uptime_s": T}`` — answers 200
    as long as the process serves HTTP, even while draining.  Point
    restart-deciding probes here.
``GET /readyz``
    Readiness: 200 with ``{"status": "ok", "epoch", "index",
    "index_params", "mode", "backend", "uptime_s", "in_flight",
    "open_connections"}`` while accepting traffic; 503 with
    ``"status": "draining"`` once a drain began.  Point load-balancer
    membership probes here.
``GET /reach?source=S&target=T``
    Plain reachability; answer plus epoch/route provenance.
``GET /lreach?source=S&target=T&constraint=C``
    Path-constrained reachability (labeled mode only).
``POST /reach/batch``
    Body ``{"pairs": [[S, T], ...]}``.  Answers the whole batch against
    one snapshot through the engine's amortised batch path; per-pair
    cache probes first, then one ``query_batch`` call for the misses.
``POST /update``
    Body ``{"ops": [{"kind": "insert", "source": 0, "target": 1,
    "label": "a"}, ...]}`` (``label`` only in labeled mode).  Applies
    the batch as one snapshot swap and returns the new epoch.
``POST /authz/write``
    Body ``{"namespace": N, "writes": ["s#rel@o", ...], "deletes":
    [...]}``.  Applies grants/revokes to the attached
    :class:`~repro.authz.store.AuthzStore` and returns the new epoch's
    zookie.
``POST /authz/check``
    Body ``{"namespace": N, "subject": S, "object": O}`` — or
    ``"objects": [O1, ...]`` for a batch of pair probes.  Optional
    ``"at_least"`` zookie; a snapshot older than it answers 409
    (``stale_zookie``) instead of stale data.
``POST /authz/expand``
    Body ``{"namespace": N, "entity": E, "direction": "objects" |
    "subjects"}`` (optional ``"type"`` prefix filter, ``"at_least"``
    zookie).  One set-enumeration call — the fast path behind
    list-objects / list-subjects — with the index route it took.
``GET /metrics``
    Flat text exposition; ``?format=json`` for the nested dict;
    ``?format=openmetrics`` for the OpenMetrics/Prometheus document
    (labelled families, histogram buckets, ``# EOF`` terminated — see
    :mod:`repro.slo.openmetrics`).
``GET /slo``
    The live ops payload: per-route windowed quantiles, SLO burn rates
    and breach states (when a tracker is attached), shadow-audit status
    (when an auditor is attached), epoch/index/backend identity.  The
    ``repro top`` dashboard renders exactly this.
``GET /explain?source=S&target=T``
    The routed decision path the query takes (cache probe, label probe,
    certificate, fallback) without bumping route counters.
``GET /debug/trace``
    Tracer statistics plus the ring buffer of finished root spans as
    JSON (empty unless tracing is enabled; ``?limit=N`` caps the spans).
``GET /advise``
    Run the index advisor against the live snapshot and telemetry and
    return the full :class:`~repro.advisor.advise.Advice` payload
    (``?budget_bytes=N`` to cap index size, ``?probe=0`` for the
    instant analytic-only answer).  When an
    :class:`~repro.service.advisor.AdvisorLoop` is attached,
    ``?cached=1`` serves the loop's latest advice and last action
    without recomputing.

Resilience
----------
Every query/update route passes through an
:class:`~repro.service.admission.AdmissionController`: beyond the
configured concurrency and queue bounds, requests are shed with ``503``
plus a ``Retry-After`` header instead of piling onto the thread pool.
(``/healthz`` and ``/metrics`` bypass admission — health checks must
answer precisely when the service is saturated.)

Per-request deadlines: ``?timeout_ms=N`` (query string), an
``X-Timeout-Ms`` header, or a ``"timeout_ms"`` JSON body field install a
:func:`~repro.resilience.deadline_scope` around evaluation; on expiry
the engine answers ``UNKNOWN`` (``"reachable": null``, route
``deadline_abort``) rather than hanging.  A server-wide
``default_timeout_ms`` applies when the request names none.

``service.handler`` is a chaos injection point, fired at dispatch.  Any
unexpected exception becomes a JSON ``500`` — never a raw traceback on
the wire.  :meth:`ServiceHTTPServer.drain` implements graceful
shutdown: stop admitting, wait out in-flight requests, stop serving,
hang up on the idle connections that remain.

Errors are JSON too: 400 for malformed requests (an unusable
``Content-Length`` included), 404 for unknown paths, 408 for a body that
never arrives, 411 for ``Transfer-Encoding``, 503 (with ``Retry-After``)
when shedding — and so are the protocol-level refusals the stdlib would
render as HTML: a bad request line or header block (400), 414, 431, an
unsupported method (501), HTTP/2 (505).
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from repro import accel
from repro.advisor import advise
from repro.authz.store import AuthzStore, Zookie
from repro.authz.tuples import parse_tuples
from repro.errors import (
    ChaosInjectedError,
    DeadlineExceeded,
    InvalidVertexError,
    ReproError,
    ServiceOverloadedError,
)
from repro.obs.metrics import global_registry
from repro.obs.tracer import TRACER, span_to_dict
from repro.resilience.chaos import chaos_point
from repro.resilience.deadline import deadline_scope
from repro.service.admission import AdmissionController
from repro.service.advisor import AdvisorLoop
from repro.service.engine import QueryResult, ReachabilityService
from repro.slo import build_slo_payload, service_openmetrics
from repro.workloads.updates import EdgeOp, LabeledEdgeOp

__all__ = ["ServiceHTTPServer", "serve"]

#: Routes that bypass admission control (must answer under saturation —
#: health probes, scrapers and the ops dashboard are how an operator
#: *sees* the saturation).
UNGATED_PATHS = ("/healthz", "/readyz", "/metrics", "/slo")

_HTTP_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ReachabilityService`."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: ReachabilityService,
        quiet: bool = True,
        admission: AdmissionController | None = None,
        default_timeout_ms: float | None = None,
        advisor: "AdvisorLoop | None" = None,
        slo_tracker: object | None = None,
        auditor: object | None = None,
        authz: AuthzStore | None = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.quiet = quiet
        self.admission = admission if admission is not None else AdmissionController()
        self.default_timeout_ms = default_timeout_ms
        self.advisor = advisor
        self.slo_tracker = slo_tracker
        self.auditor = auditor
        self.authz = authz
        self.started_at = time.monotonic()
        #: Accepted sockets whose handler loop has not finished.
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        #: ``(second, "Server: ...\r\nDate: ...\r\n")``.  Handler threads
        #: replace the tuple whole, so a reader never pairs one second
        #: with another second's text.
        self._head_stamp: tuple[int, str] = (0, "")

    @property
    def uptime_s(self) -> float:
        """Seconds since this server object was constructed."""
        return time.monotonic() - self.started_at

    def process_request(self, request, client_address) -> None:
        global_registry().counter("service.http.connections").increment()
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def start_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (tests, embedding)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Graceful shutdown: shed new requests, wait out in-flight ones.

        Returns True when in-flight work finished inside ``timeout_s``;
        either way the server has stopped serving when this returns: the
        listener is closed and every connection still open has been
        hung up on.
        """
        self.admission.start_draining()
        drained = self.admission.wait_drained(timeout_s)
        self.shutdown()
        self.server_close()  # close the listener: no half-open backlog
        # Whatever is still connected is idle between requests (or was
        # abandoned by the timeout): end its blocked read, so the handler
        # sees EOF and closes.  A response being written still goes out.
        with self._connections_lock:
            survivors = list(self._connections)
        for connection in survivors:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # its handler closed it first
        return drained


def serve(
    service: ReachabilityService,
    host: str = "127.0.0.1",
    port: int = 8080,
    quiet: bool = True,
    max_concurrent: int = 64,
    queue_depth: int = 128,
    queue_timeout_s: float = 0.25,
    default_timeout_ms: float | None = None,
    advisor: AdvisorLoop | None = None,
    slo_tracker: object | None = None,
    auditor: object | None = None,
    authz: AuthzStore | None = None,
) -> ServiceHTTPServer:
    """Bind a :class:`ServiceHTTPServer`; call ``serve_forever`` to run."""
    admission = AdmissionController(
        max_concurrent=max_concurrent,
        queue_depth=queue_depth,
        queue_timeout_s=queue_timeout_s,
    )
    return ServiceHTTPServer(
        (host, port),
        service,
        quiet=quiet,
        admission=admission,
        default_timeout_ms=default_timeout_ms,
        advisor=advisor,
        slo_tracker=slo_tracker,
        auditor=auditor,
        authz=authz,
    )


class _BodyTimeout(ValueError):
    """The declared request body did not arrive within ``_Handler.timeout``."""

    http_status = 408


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer

    protocol_version = "HTTP/1.1"
    #: Seconds a connection may idle between requests, or stall inside a
    #: request body, before its thread gives up and closes it.
    timeout = 30.0
    #: A pipelined second response must not wait out the client's delayed ACK.
    disable_nagle_algorithm = True
    #: Bytes of this request's declared body still on the stream.
    _body_unread = 0

    # -- plumbing --------------------------------------------------------
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    def parse_request(self) -> bool:
        """The stdlib's request-line rules, then a lean header read.

        ``email.parser`` costs ~30 µs for one ``Host:`` line.  This keeps
        the stdlib's limits and statuses (a line over 65 536 bytes, or
        more than 100 of them, is a 431) and refuses what would desync a
        persistent stream: a line without ``:``, whitespace in or before
        a name (obs-fold included), and a body whose length is ambiguous —
        conflicting or non-numeric ``Content-Length`` (400),
        ``Transfer-Encoding`` (411).  ``self.headers`` becomes a dict keyed
        by lower-cased name; the first occurrence wins, as with ``Message``.
        """
        self.close_connection = True
        self.requestline = line = self.raw_requestline.decode("latin-1").rstrip("\r\n")
        words = line.split()
        if not words:
            return False
        if len(words) == 2:  # an HTTP/0.9 simple request: answered, then closed
            words.append("HTTP/0.9")
        match = len(words) == 3 and _HTTP_VERSION.fullmatch(words[2])
        if not match:
            return self.send_error(400, f"Bad request syntax ({line!r})")
        version = int(match[1]), int(match[2])
        if version >= (2, 0):
            return self.send_error(505, f"Invalid HTTP version ({words[2][5:]})")
        self.command, self.path, self.request_version = words
        headers = self.headers = {}
        for _ in range(100):
            raw = self.rfile.readline(65537)
            if len(raw) > 65536:
                return self.send_error(431, "Line too long")
            if raw in (b"\r\n", b"\n", b""):
                break
            name, colon, value = raw.decode("latin-1").partition(":")
            if not colon or name.split() != [name]:
                return self.send_error(400, f"Bad header line ({name[:40]!r})")
            name, value = name.lower(), value.strip(" \t\r\n")
            if headers.setdefault(name, value) != value and name == "content-length":
                return self.send_error(400, "Conflicting Content-Length headers")
        else:
            return self.send_error(431, "Too many headers")
        length = headers.get("content-length", "0")
        if "transfer-encoding" in headers:
            return self.send_error(411, "Transfer-Encoding unsupported: send a length")
        if not (length.isascii() and length.isdigit() and len(length) < 19):
            return self.send_error(400, "Content-Length must be a non-negative integer")
        self._body_unread = int(length)
        connection = headers.get("connection", "").lower()
        self.close_connection = connection != "keep-alive" and (
            connection == "close" or version < (1, 1)
        )
        if headers.get("expect", "").lower() == "100-continue" and version >= (1, 1):
            return self.handle_expect_100()
        return True

    def send_error(self, code, message=None, explain=None) -> bool:
        """Protocol-level refusals (bad request line, 414, 431, 501) in the
        JSON error shape; the stream is not trusted afterwards.  Returns
        False, which is what ``parse_request`` owes its caller next."""
        self.close_connection = True
        self._error(int(code), message or self.responses[code][0])
        return False

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        """Write one response — head and body in a single ``write``.

        The connection survives it only if the next byte on the stream is
        a request line: the declared body was read and the server is not
        draining.  Otherwise the client is told, and the loop ends.
        """
        if not self.server.quiet:
            self.log_request(status)
        if self._body_unread or self.server.admission.draining:
            self.close_connection = True
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            f"{self._server_date(int(time.time()))}"
            f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
        )
        for name, value in (extra_headers or {}).items():
            head += f"{name}: {value}\r\n"
        if self.close_connection:
            head += "Connection: close\r\n"
        self.wfile.write(head.encode("latin-1") + b"\r\n" + body)

    def _server_date(self, second: int) -> str:
        """The ``Server`` and ``Date`` lines, rendered once per second."""
        stamp = self.server._head_stamp
        if stamp[0] != second:
            lines = f"Server: {self.version_string()}\r\n"
            lines += f"Date: {self.date_time_string(second)}\r\n"
            stamp = self.server._head_stamp = (second, lines)
        return stamp[1]

    def _send_json(
        self,
        status: int,
        payload: dict[str, object],
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        self._send(
            status,
            json.dumps(payload).encode() + b"\n",
            "application/json; charset=utf-8",
            extra_headers,
        )

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _overloaded(self, exc: ServiceOverloadedError) -> None:
        retry_after = max(1, int(round(exc.retry_after_s)))
        self._send_json(
            503,
            {"error": str(exc), "retry_after_s": exc.retry_after_s},
            {"Retry-After": str(retry_after)},
        )

    def _params(self) -> dict[str, str]:
        """The query string (last value wins), parsed on first use."""
        params = self._parsed
        if params is None:
            query = parse_qs(self._query)
            params = self._parsed = {k: values[-1] for k, values in query.items()}
        return params

    def _vertex(self, params: dict[str, str], name: str) -> int:
        try:
            return int(params[name])
        except KeyError:
            raise ValueError(f"missing parameter {name!r}") from None
        except ValueError:
            raise ValueError(f"parameter {name!r} must be an integer") from None

    def _query_payload(self, result: QueryResult) -> dict[str, object]:
        return {
            "reachable": result.answer,
            "status": result.status,
            "epoch": result.epoch,
            "route": result.route,
            "shared": result.shared,
        }

    def _check_known_vertices(self, pairs, batched: bool = False) -> None:
        """Reject unknown vertex ids up front with a typed 400.

        ``batched`` reports the zero-based pair ``position`` in the
        payload so callers can point at the offending pair.
        """
        n = self.server.service.acquire().graph.num_vertices
        for position, (source, target) in enumerate(pairs):
            for vertex in (source, target):
                if not 0 <= vertex < n:
                    raise InvalidVertexError(
                        vertex, n, position=position if batched else None
                    )

    def _request_timeout_ms(self) -> float | None:
        """The request's deadline budget: query param, header, or default."""
        raw = self._params().get("timeout_ms")
        if raw is None:
            raw = self.headers.get("x-timeout-ms")
        if raw is None:
            return self.server.default_timeout_ms
        try:
            timeout_ms = float(raw)
        except ValueError:
            raise ValueError("timeout_ms must be a number") from None
        if timeout_ms < 0:
            raise ValueError("timeout_ms must be >= 0")
        return timeout_ms

    # -- dispatch --------------------------------------------------------
    def _gated(self, fn) -> None:
        """Admission-controlled dispatch: shed with 503, never crash."""
        try:
            admission = self.server.admission.admit()
        except ServiceOverloadedError as exc:
            self._overloaded(exc)
            return
        with admission:
            self._safely(fn)

    def _safely(self, fn) -> None:
        """Run a route body; every failure becomes a typed JSON response."""
        try:
            chaos_point("service.handler")
            with deadline_scope(self._request_timeout_ms()):
                fn()
        except ServiceOverloadedError as exc:
            self._overloaded(exc)
        except DeadlineExceeded as exc:
            self._error(504, str(exc))
        except ChaosInjectedError as exc:
            self._error(500, f"injected fault: {exc}")
        except (ValueError, ReproError) as exc:
            # Typed library errors carry their own status and payload
            # shape; everything else renders as a plain 400.
            status = getattr(exc, "http_status", 400)
            as_payload = getattr(exc, "as_payload", None)
            payload = as_payload() if callable(as_payload) else {"error": str(exc)}
            headers = None
            retry_after_s = getattr(exc, "retry_after_s", None)
            if retry_after_s is not None:
                # Backpressure errors (WAL write backlog, etc.) tell
                # clients when to come back, like _overloaded does.
                headers = {"Retry-After": str(max(1, int(round(retry_after_s))))}
            self._send_json(status, payload, headers)
        except Exception as exc:  # noqa: BLE001 — last-resort JSON 500
            self._error(500, f"internal error: {type(exc).__name__}: {exc}")

    # -- routes ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch(self._route_post)

    def _dispatch(self, route) -> None:
        """Split the request target once, forget the last request's parsed
        query (same connection, same handler), run ``route`` behind admission."""
        path, _, self._query = self.path.partition("?")
        self._parsed = None
        if self.command == "GET" and path in UNGATED_PATHS:
            self._safely(lambda: route(path))
        else:
            self._gated(lambda: route(path))

    def _route_get(self, path: str) -> None:
        service = self.server.service
        if path == "/healthz":
            # Pure liveness: the process answers HTTP, nothing more.
            # Draining is a readiness concern — a restart probe that
            # kills a draining server would defeat graceful shutdown.
            self._send_json(
                200, {"status": "ok", "uptime_s": self.server.uptime_s}
            )
        elif path == "/readyz":
            admission = self.server.admission
            draining = admission.draining
            payload: dict[str, object] = {
                "status": "draining" if draining else "ok",
                "epoch": service.epoch,
                "index": service.index_name,
                "index_params": service.index_params,
                "mode": "labeled" if service.labeled_mode else "plain",
                "backend": accel.backend_name(),
                "uptime_s": self.server.uptime_s,
                "in_flight": admission.in_flight,
                "open_connections": len(self.server._connections),
            }
            wal_status = service.wal_status()
            if wal_status is not None:
                payload["wal"] = wal_status
            self._send_json(503 if draining else 200, payload)
        elif path == "/slo":
            self._send_json(
                200,
                build_slo_payload(
                    service,
                    tracker=self.server.slo_tracker,
                    auditor=self.server.auditor,
                    uptime_s=self.server.uptime_s,
                    draining=self.server.admission.draining,
                ),
            )
        elif path == "/reach":
            params = self._params()
            source = self._vertex(params, "source")
            target = self._vertex(params, "target")
            self._check_known_vertices([(source, target)])
            result = service.reach_ex(source, target)
            self._send_json(200, self._query_payload(result))
        elif path == "/lreach":
            params = self._params()
            constraint = params.get("constraint")
            if constraint is None:
                raise ValueError("missing parameter 'constraint'")
            result = service.lreach_ex(
                self._vertex(params, "source"),
                self._vertex(params, "target"),
                constraint,
            )
            self._send_json(200, self._query_payload(result))
        elif path == "/metrics":
            fmt = self._params().get("format")
            if fmt == "json":
                self._send_json(200, service.metrics_dict())
            elif fmt == "openmetrics":
                self._send(
                    200,
                    service_openmetrics(
                        service,
                        tracker=self.server.slo_tracker,
                        auditor=self.server.auditor,
                        uptime_s=self.server.uptime_s,
                        admission=self.server.admission,
                    ).encode(),
                    "application/openmetrics-text; version=1.0.0; "
                    "charset=utf-8",
                )
            else:
                self._send(
                    200,
                    service.metrics_text().encode(),
                    "text/plain; charset=utf-8",
                )
        elif path == "/explain":
            params = self._params()
            explanation = service.explain(
                self._vertex(params, "source"), self._vertex(params, "target")
            )
            self._send_json(200, explanation.as_dict())
        elif path == "/advise":
            params = self._params()
            payload = {}
            loop = self.server.advisor
            if params.get("cached") in ("1", "true") and loop is not None:
                advice = loop.last_advice
                if advice is None:
                    raise ValueError("advisor loop has not produced advice yet")
                payload = advice.as_dict()
                payload["last_action"] = loop.last_action
            else:
                budget = None
                if "budget_bytes" in params:
                    try:
                        budget = int(params["budget_bytes"])
                    except ValueError:
                        raise ValueError(
                            "parameter 'budget_bytes' must be an integer"
                        ) from None
                probe = params.get("probe") not in ("0", "false")
                snap = service.acquire()
                advice = advise(
                    snap.graph,
                    metrics=service.metrics_dict(),
                    budget_bytes=budget,
                    probe=probe,
                )
                payload = advice.as_dict()
                payload["epoch"] = snap.epoch
            payload["serving"] = {
                "index": service.index_name,
                "index_params": service.index_params,
            }
            self._send_json(200, payload)
        elif path == "/debug/trace":
            params = self._params()
            spans = TRACER.finished()
            if "since_ms" in params:
                try:
                    since_ms = float(params["since_ms"])
                except ValueError:
                    raise ValueError(
                        "parameter 'since_ms' must be a number"
                    ) from None
                cutoff = time.time() - since_ms / 1000.0
                spans = [s for s in spans if s.start_unix_s >= cutoff]
            if "limit" in params:
                try:
                    limit = max(0, int(params["limit"]))
                except ValueError:
                    raise ValueError("parameter 'limit' must be an integer") from None
                spans = spans[-limit:] if limit else []
            self._send_json(
                200,
                {
                    "tracer": TRACER.statistics(),
                    "spans": [span_to_dict(span) for span in spans],
                },
            )
        else:
            self._error(404, f"unknown path {path!r}")

    def _route_post(self, path: str) -> None:
        service = self.server.service
        if path == "/update":
            body = self._json_body()
            ops = _parse_ops(body, labeled=service.labeled_mode)
            with deadline_scope(_body_timeout_ms(body)):
                epoch = service.apply_updates(ops)
            self._send_json(200, {"epoch": epoch, "applied": len(ops)})
        elif path == "/reach/batch":
            body = self._json_body()
            pairs = _parse_pairs(body)
            self._check_known_vertices(pairs, batched=True)
            with deadline_scope(_body_timeout_ms(body)):
                results = service.execute_batch(pairs)
            self._send_json(
                200,
                {
                    "epoch": results[0].epoch if results else service.epoch,
                    "count": len(results),
                    "results": [self._query_payload(r) for r in results],
                },
            )
        elif path == "/authz/write":
            store = self._authz_store()
            body = self._json_body()
            namespace = _authz_namespace(body)
            writes = parse_tuples(_string_list(body, "writes"))
            deletes = parse_tuples(_string_list(body, "deletes"))
            zookie = store.write(namespace, writes=writes, deletes=deletes)
            self._send_json(
                200,
                {
                    "namespace": namespace,
                    "epoch": zookie.epoch,
                    "zookie": zookie.encode(),
                    "applied": len(writes) + len(deletes),
                },
            )
        elif path == "/authz/check":
            store = self._authz_store()
            body = self._json_body()
            namespace = _authz_namespace(body)
            at_least = _authz_zookie(body)
            subject = _string_field(body, "subject")
            if "objects" in body:
                objects = _string_list(body, "objects")
                results = [
                    store.check(namespace, subject, obj, at_least=at_least)
                    for obj in objects
                ]
                self._send_json(
                    200,
                    {
                        "namespace": namespace,
                        "subject": subject,
                        "allowed": [r.allowed for r in results],
                        "zookie": results[-1].zookie.encode() if results else None,
                    },
                )
            else:
                result = store.check(
                    namespace, subject, _string_field(body, "object"), at_least=at_least
                )
                self._send_json(
                    200,
                    {
                        "namespace": namespace,
                        "allowed": result.allowed,
                        "zookie": result.zookie.encode(),
                    },
                )
        elif path == "/authz/expand":
            store = self._authz_store()
            body = self._json_body()
            namespace = _authz_namespace(body)
            direction = body.get("direction", "objects")
            if not isinstance(direction, str):
                raise ValueError("'direction' must be a string")
            result = store.expand(
                namespace,
                _string_field(body, "entity"),
                direction=direction,
                at_least=_authz_zookie(body),
            )
            names = result.names
            entity_type = body.get("type")
            if entity_type is not None:
                if not isinstance(entity_type, str):
                    raise ValueError("'type' must be a string")
                prefix = entity_type + ":"
                names = tuple(n for n in names if n.startswith(prefix))
            self._send_json(
                200,
                {
                    "namespace": namespace,
                    "entity": result.entity,
                    "direction": result.direction,
                    "names": list(names),
                    "count": len(names),
                    "route": result.route,
                    "zookie": result.zookie.encode(),
                },
            )
        else:
            self._error(404, f"unknown path {path!r}")

    def _authz_store(self) -> AuthzStore:
        store = self.server.authz
        if store is None:
            raise ValueError(
                "no authz store attached to this server (start with --authz)"
            )
        return store

    def _json_body(self) -> object:
        try:
            raw = self.rfile.read(self._body_unread)
        except TimeoutError:
            raise _BodyTimeout("timed out waiting for the request body") from None
        self._body_unread = 0
        try:
            return json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON body: {exc}") from None


def _body_timeout_ms(body: object) -> float | None:
    """The ``"timeout_ms"`` JSON body field, validated (None when absent).

    Installed as a *nested* deadline scope: the tighter of the body field
    and any header/query/default budget wins.
    """
    if not isinstance(body, dict) or "timeout_ms" not in body:
        return None
    raw = body["timeout_ms"]
    if not isinstance(raw, (int, float)) or isinstance(raw, bool) or raw < 0:
        raise ValueError("timeout_ms must be a non-negative number")
    return float(raw)


def _string_field(body: object, name: str) -> str:
    if not isinstance(body, dict) or not isinstance(body.get(name), str):
        raise ValueError(f"body needs a string {name!r} field")
    return body[name]


def _string_list(body: object, name: str) -> list[str]:
    if not isinstance(body, dict):
        raise ValueError("body must be a JSON object")
    raw = body.get(name, [])
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise ValueError(f"{name!r} must be a list of strings")
    return raw


def _authz_namespace(body: object) -> str:
    return _string_field(body, "namespace")


def _authz_zookie(body: object) -> Zookie | None:
    """The optional ``"at_least"`` zookie of an authz read body."""
    if not isinstance(body, dict) or "at_least" not in body:
        return None
    return Zookie.decode(body["at_least"])


def _parse_pairs(body: object) -> list[tuple[int, int]]:
    if not isinstance(body, dict) or not isinstance(body.get("pairs"), list):
        raise ValueError('body must be {"pairs": [[source, target], ...]}')
    pairs: list[tuple[int, int]] = []
    for position, raw in enumerate(body["pairs"]):
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise ValueError(f"pairs[{position}] must be a [source, target] pair")
        try:
            pairs.append((int(raw[0]), int(raw[1])))
        except (TypeError, ValueError):
            raise ValueError(
                f"pairs[{position}] needs integer source and target"
            ) from None
    return pairs


def _parse_ops(body: object, labeled: bool) -> list[EdgeOp | LabeledEdgeOp]:
    if not isinstance(body, dict) or not isinstance(body.get("ops"), list):
        raise ValueError('body must be {"ops": [...]}')
    ops: list[EdgeOp | LabeledEdgeOp] = []
    for position, raw in enumerate(body["ops"]):
        if not isinstance(raw, dict):
            raise ValueError(f"ops[{position}] must be an object")
        kind = raw.get("kind")
        if kind not in ("insert", "delete"):
            raise ValueError(f"ops[{position}].kind must be 'insert' or 'delete'")
        try:
            source = int(raw["source"])
            target = int(raw["target"])
        except (KeyError, TypeError, ValueError):
            raise ValueError(
                f"ops[{position}] needs integer 'source' and 'target'"
            ) from None
        if labeled:
            label = raw.get("label")
            if not isinstance(label, str):
                raise ValueError(f"ops[{position}] needs a string 'label'")
            ops.append(LabeledEdgeOp(kind, source, target, label))
        else:
            ops.append(EdgeOp(kind, source, target))
    return ops
