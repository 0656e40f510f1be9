"""Stdlib JSON HTTP API over a :class:`QueryService`, for every worker count.

A :class:`ThreadingHTTPServer` (one thread per connection, daemon
threads) dispatching to the shared service instance through one route
table, :data:`ROUTES`:

====================================  =========================================
``GET /v1/healthz``                   liveness + dataset identity
``GET /v1/metrics``                   request counters, latency histograms,
                                      cache + artifact-store stats
``GET /v1/rankings?country=US&...``   rank-list head (``platform``, ``metric``,
                                      ``month``, ``top`` optional)
``GET /v1/sites/<site>?...``          one site's rank across all countries
``GET /v1/distributions?...``         global traffic curve for a slice
``GET /v1/analyses``                  the pipeline task catalogue
``GET /v1/analyses/<task>``           one task's artifact (warm-served)
====================================  =========================================

The table gives each path its endpoint label and renderer.  A single
process and every fleet worker run the same
:class:`ReproRequestHandler` and render every request locally, so any
worker count answers byte-identically.  A server fronting a fleet of
more than one worker carries its
:class:`~repro.fleet.worker.FleetWorkerRuntime` (``server.fleet``),
and only its ``/v1/metrics`` differs: it is merged fleet-wide.

All bodies — including every 4xx/5xx — are canonical JSON with a
``Content-Length``, so responses are byte-identical across threads,
workers and runs.  Errors never leak a traceback: a
:class:`ServiceError` maps to its status and structured payload
(unknown country/task → 404 with the valid choices), anything else to
a one-line 500.  Each request is logged through the ``repro.service``
logger as ``method path status bytes ms`` and rendered inside exactly
one ``http.<label>`` span (``unknown`` for no route,
``method_not_allowed`` for a write method), an error for a status
>= 400.  That span is the response's one observation, so
``/v1/metrics`` request counters equal the responses sent.

Paths are percent-decoded *per segment, after splitting*: a site name
containing an encoded slash (``/v1/sites/foo%2Fbar``) stays one
``<site>`` segment instead of shattering the route.

Every server stops the same way (:class:`Lifecycle`): SIGTERM or
SIGINT stops the accept loops, requests in flight run to completion
(bounded by the spec's ``drain_timeout``), idle keep-alive connections
are not waited for, the trace file is written, and the process exits 0.
"""

from __future__ import annotations

import logging
import signal
import socket
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, unquote, urlsplit

from ..obs import get_tracer
from .errors import MethodNotAllowed, NotFound, ServiceError
from .query import DEFAULT_TOP, QueryService, render_payload

log = logging.getLogger("repro.service")

#: Signals that stop a server (blocked across a fleet supervisor's fork).
STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)

Params = dict[str, str]


@dataclass(frozen=True)
class Route:
    """One endpoint: its label (``http.<label>`` span) and renderer."""

    label: str
    render: Callable[[QueryService, tuple[str, ...], Params], bytes]


def _rankings(service: QueryService, _, params: Params) -> bytes:
    country = params.get("country")
    if not country:
        raise NotFound(
            "rankings requires a ?country=<ISO code> parameter",
            choices=service.dataset.countries,
        )
    return service.rankings(
        country,
        platform=params.get("platform"),
        metric=params.get("metric"),
        month=params.get("month"),
        top=params.get("top", DEFAULT_TOP),
        as_of=params.get("as_of"),
    )


def _site(service: QueryService, segments, params: Params) -> bytes:
    return service.site(
        segments[2],
        platform=params.get("platform"),
        metric=params.get("metric"),
        month=params.get("month"),
        as_of=params.get("as_of"),
    )


#: The route table: path pattern (``<name>`` matches one segment) ->
#: :class:`Route`.  Its keys are the endpoints the index lists.
ROUTES: dict[str, Route] = {
    "/v1/healthz": Route(
        "healthz", lambda s, _, p: s.healthz(as_of=p.get("as_of"))),
    "/v1/metrics": Route("metrics", lambda s, _, p: s.metrics_payload()),
    "/v1/rankings": Route("rankings", _rankings),
    "/v1/sites/<site>": Route("site", _site),
    "/v1/distributions": Route(
        "distribution",
        lambda s, _, p: s.distribution(
            platform=p.get("platform"),
            metric=p.get("metric"),
            as_of=p.get("as_of"),
        ),
    ),
    "/v1/analyses": Route("analyses", lambda s, _, p: s.analyses()),
    "/v1/analyses/<task>": Route(
        "analysis",
        lambda s, seg, p: s.analysis(seg[2], as_of=p.get("as_of")),
    ),
}

#: Served on ``/`` and in unknown-route 404 choices.
ENDPOINTS: tuple[str, ...] = tuple(ROUTES)

_INDEX = Route("index", lambda s, _, p: render_payload({
    "service": "repro", "endpoints": list(ENDPOINTS),
}))

#: Routes by segment shape; a ``<name>`` segment is keyed as ``None``.
_BY_SHAPE: dict[tuple[str | None, ...], Route] = {
    tuple(
        None if part.startswith("<") else part
        for part in pattern.split("/")[1:]
    ): route
    for pattern, route in ROUTES.items()
}
_BY_SHAPE[()] = _BY_SHAPE[("v1",)] = _INDEX


def resolve(segments: tuple[str, ...]) -> Route | None:
    """The route for a decoded path, or ``None`` for an unknown one."""
    route = _BY_SHAPE.get(segments)
    if route is None and len(segments) == 3:
        route = _BY_SHAPE.get((*segments[:2], None))
    return route


def connectable_url(address: tuple) -> str:
    """A *connectable* base URL for a bound socket address.

    A wildcard bind (``0.0.0.0`` / ``::``) is a listen address, not a
    destination — substituting loopback keeps the startup log and smoke
    tests pointing at something a client can actually open.
    """
    host, port = address[:2]
    if host in ("0.0.0.0", "::", ""):
        host = "::1" if host == "::" else "127.0.0.1"
    if ":" in host:  # bracket IPv6 literals for URL syntax
        host = f"[{host}]"
    return f"http://{host}:{port}"


def bind(host: str, port: int, *, backlog: int = 128) -> socket.socket:
    """A listening socket; ``port=0`` picks a free port.

    It always carries ``SO_REUSEADDR``, so rapid restart loops — tests,
    benchmark runs, fleet supervisors respawning a worker — never trip
    over EADDRINUSE while the old socket lingers in TIME_WAIT.
    """
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    return socket.create_server((host, port), family=family, backlog=backlog)


class _Inflight:
    """Counts requests currently being handled (for the drain)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0

    def __enter__(self) -> "_Inflight":
        with self._lock:
            self.count += 1
        return self

    def __exit__(self, *exc) -> None:
        with self._lock:
            self.count -= 1


class ReproHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server serving one :class:`QueryService` on an
    already-listening socket (its own, or a fleet's shared one).

    ``fleet`` is the fleet runtime of a public server fronting more
    than one worker, whose ``/v1/metrics`` it merges; a single process
    and a worker's internal port leave it ``None``.
    """

    daemon_threads = True
    #: How long a stopping server waits for in-flight requests.
    drain_timeout = 10.0
    #: The tracing scope :func:`serve_forever` closes on the way out.
    trace_scope = None

    def __init__(self, sock: socket.socket, service: QueryService, *,
                 fleet=None) -> None:
        self.service = service
        self.fleet = fleet
        self.inflight = _Inflight()
        super().__init__(
            sock.getsockname()[:2], ReproRequestHandler,
            bind_and_activate=False,
        )
        # Swap the unbound socket socketserver created for the given
        # one; it is already listening.
        self.socket.close()
        self.socket = sock
        # Pre-fork thundering herd: a connection wakes every worker's
        # selector, one wins the accept, and on a *blocking* socket the
        # losers would then sit in accept() — unresponsive to shutdown —
        # until the next connection arrives.  Non-blocking turns the
        # lost race into an EAGAIN the serve loop swallows.
        sock.setblocking(False)
        self.server_address = sock.getsockname()[:2]
        self.server_name, self.server_port = self.server_address

    @property
    def url(self) -> str:
        """A connectable base URL for this server (see :func:`connectable_url`)."""
        return connectable_url(self.server_address)


class ReproRequestHandler(BaseHTTPRequestHandler):
    """Routes one request to the service; see the module docstring."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # Headers and body go out as separate writes on an unbuffered
    # socket; with Nagle on, the second write stalls behind the peer's
    # delayed ACK (~40ms per response on loopback).  TCP_NODELAY makes
    # response latency track render time instead.
    disable_nagle_algorithm = True

    @property
    def service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing -----------------------------------------------------------------

    def _respond(self, status: int, body: bytes, started: float) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        log.info(
            "%s %s %d %dB %.1fms",
            self.command, self.path, status, len(body),
            (time.perf_counter() - started) * 1000.0,
        )

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Route default handler chatter through our logger, not stderr."""
        log.debug(format, *args)

    # -- dispatch -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Resolve the route, then render it in its ``http.<label>`` span.

        Percent-decoding happens per segment *after* splitting, so an
        encoded slash inside a ``<site>`` or ``<task>`` name stays part
        of that one segment instead of changing the route shape.
        """
        parsed = urlsplit(self.path)
        raw = parsed.path.rstrip("/")
        segments = tuple(unquote(s) for s in raw.split("/")[1:]) if raw else ()
        route = resolve(segments)
        if route is None:
            error = NotFound(
                f"unknown endpoint {parsed.path!r}", choices=ENDPOINTS
            )
            return self._dispatch("unknown", _raising(error))
        params = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        fleet = self.server.fleet  # type: ignore[attr-defined]
        if fleet is not None and route.label == "metrics":
            return self._dispatch(
                "metrics", lambda: fleet.fleet_metrics(self.service)
            )
        self._dispatch(
            route.label, lambda: route.render(self.service, segments, params)
        )

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("method_not_allowed", _raising(MethodNotAllowed(
            "the serving API is read-only; use GET"
        )))

    do_PUT = do_DELETE = do_PATCH = do_POST

    def _dispatch(self, label: str, render: Callable[[], bytes]) -> None:
        """Render one response in its one ``http.<label>`` span, then send it.

        Any exception closes the span as an error.  The span closes
        before the response is written, so a client that has read a
        response finds it counted.  The in-flight count is what a
        stopping server drains.
        """
        started = time.perf_counter()
        with self.server.inflight:  # type: ignore[attr-defined]
            with get_tracer().span(
                f"http.{label}", method=self.command, path=self.path
            ) as span:
                try:
                    status, body = 200, render()
                except Exception as exc:  # noqa: BLE001 - no tracebacks on the wire
                    message = f"{type(exc).__name__}: {exc}"
                    span.fail(message)
                    if not isinstance(exc, ServiceError):
                        exc = ServiceError(message)  # a one-line 500
                    status, body = exc.status, render_payload(exc.payload())
                span.set("status_code", status)
            self._respond(status, body, started)


def _raising(error: ServiceError) -> Callable[[], bytes]:
    """A renderer that fails with ``error`` (no route, or no such method)."""
    def render() -> bytes:
        raise error
    return render


def create_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8000,
) -> ReproHTTPServer:
    """A bound (not yet serving) server; ``port=0`` picks a free port."""
    return ReproHTTPServer(bind(host, port), service)


class StopSignals:
    """SIGTERM/SIGINT as a byte on a socket pair.

    A Python signal handler runs on the main thread between any two
    bytecodes — possibly while that thread holds a lock the stop path
    needs, or inside library code that would swallow an exception — so
    the handler installed here takes no lock, starts no thread and
    raises nothing: it sends one byte, and :meth:`wait` receives it.
    """

    def __init__(self) -> None:
        self._recv, self._send = socket.socketpair()
        self._send.setblocking(False)
        self._previous: dict = {}

    def install(self) -> None:
        """Route the stop signals here (main thread only)."""
        self._previous = {
            sig: signal.signal(sig, self._handle) for sig in STOP_SIGNALS
        }

    def _handle(self, signum=None, frame=None) -> None:
        try:
            self._send.send(b"\0")
        except OSError:  # the buffer is full: a stop is already pending
            pass

    wake = _handle

    def wait(self, timeout: float | None = None) -> bool:
        """Whether a stop arrived within ``timeout`` s (``None``: block)."""
        self._recv.settimeout(timeout)
        try:
            return bool(self._recv.recv(1))
        except (BlockingIOError, socket.timeout):
            return False

    def close(self) -> None:
        """Restore the replaced handlers, then close the pair."""
        for sig, handler in self._previous.items():
            signal.signal(sig, handler)
        self._previous = {}
        self._recv.close()
        self._send.close()


class Lifecycle:
    """How every server stops: stop handlers, a bounded drain, the close.

    ``signals`` carries SIGTERM/SIGINT once installed (main thread).
    :meth:`serve` serves until a stop arrives, then waits for the
    requests in flight — at most ``drain_timeout`` seconds — and
    closes the servers.  A stop that arrived before :meth:`serve`
    (a fleet worker still starting) makes it close the servers without
    serving.  Idle keep-alive connections hold no in-flight request, so
    they are not waited for (their daemon threads die with the process).
    """

    def __init__(self, drain_timeout: float) -> None:
        self.drain_timeout = drain_timeout
        self.signals = StopSignals()

    def serve(self, public: ReproHTTPServer, *internal: ReproHTTPServer) -> int:
        """Serve ``public`` on this thread (``internal`` on daemon
        threads) until stopped, then drain and close; returns 0."""
        servers = (public, *internal)
        stopper = None
        try:
            if not self.signals.wait(0):
                stopper = threading.Thread(
                    target=self._stop_on_signal, args=(servers,), daemon=True
                )
                stopper.start()
                for server in internal:
                    threading.Thread(
                        target=server.serve_forever, daemon=True
                    ).start()
                try:
                    public.serve_forever()
                finally:
                    for server in internal:
                        server.shutdown()
                    deadline = time.monotonic() + self.drain_timeout
                    while (any(server.inflight.count for server in servers)
                           and time.monotonic() < deadline):
                        time.sleep(0.01)
        finally:
            for server in servers:
                server.server_close()
            if stopper is not None:  # the loops have exited: a no-op stop
                self.signals.wake()
                stopper.join()
        return 0

    def _stop_on_signal(self, servers: tuple[ReproHTTPServer, ...]) -> None:
        self.signals.wait()
        # shutdown() blocks until that accept loop has exited.
        for server in servers:
            threading.Thread(target=server.shutdown, daemon=True).start()


def serve_forever(server: ReproHTTPServer) -> int:
    """Serve one process until SIGTERM/SIGINT, drain, and return 0.

    The stop handlers are installed only on the main thread (and
    restored afterwards).  If :func:`repro.api.serve` attached a
    tracing scope to the server (``--trace``), it is closed after the
    drain, so the JSONL trace holds every request served.
    """
    lifecycle = Lifecycle(server.drain_timeout)
    if threading.current_thread() is threading.main_thread():
        lifecycle.signals.install()
    try:
        return lifecycle.serve(server)
    finally:
        lifecycle.signals.close()
        scope, server.trace_scope = server.trace_scope, None
        if scope is not None:
            scope.__exit__(None, None, None)
