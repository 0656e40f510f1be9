"""One fleet worker: two HTTP servers, one ring position.

A worker process serves the public API by ``accept()``-ing on the
supervisor's shared listening socket (classic pre-fork: the kernel
load-balances connections across whichever workers are blocked in
``accept``), and additionally listens on a private loopback port —
the *internal* port — that peers use for two things:

* **ownership proxying** — a cacheable query whose consistent-hash
  owner is another worker is forwarded to that worker's internal port
  and the owner's bytes are relayed verbatim, so every payload is
  *rendered* exactly once fleet-wide instead of once per worker
  (non-owners keep an LRU copy of the relayed bytes, so the Zipf head
  is served locally everywhere after one hop);
* **metrics fan-in** — a public ``/v1/metrics`` request is answered
  with the fleet-wide view: the local snapshot plus every peer's,
  merged by :mod:`repro.fleet.metrics`.

The worker builds its own :class:`~repro.service.query.QueryService`
*after* the fork, from the dataset path — over a columnar dataset the
open is O(open) ``mmap`` and all workers share one physical copy of
the pages, which is what makes N workers cost one dataset of RAM.

All other endpoints (``/v1/healthz``, errors, the index) are answered
locally and byte-identically to single-process mode.  Shutdown is a
graceful drain: SIGTERM stops both accept loops, in-flight requests
run to completion (bounded by ``drain_timeout``), idle keep-alive
connections are dropped, and the process exits 0.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import signal
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Sequence

from ..obs import get_tracer
from ..service.http import ReproHTTPServer, ReproRequestHandler
from ..service.query import QueryService, render_payload
from .metrics import merge_snapshots
from .ring import HashRing

log = logging.getLogger("repro.fleet")

#: Signals that stop a worker; blocked across the supervisor's fork.
STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)

#: ``/v1`` heads whose payloads are cacheable and therefore owned by
#: exactly one worker.  ``healthz``/``metrics``/index stay local.
_ROUTED_HEADS = frozenset({"rankings", "sites", "distributions", "analyses"})


def payload_route_key(
    segments: tuple[str, ...],
    params: dict[str, str],
    version: int | str | None = None,
) -> str | None:
    """The ownership key for a request, or ``None`` to answer locally.

    The key is a pure function of the *canonicalised* query (sorted
    params), so every worker — and a worker restarted mid-fleet —
    hashes the same request to the same owner.  ``version`` is the
    dataset version the request resolves to (an explicit ``as_of`` or
    the worker's current latest): prefixing it keeps relayed bytes
    cached under one version from ever answering another — after an
    ingest, default-latest keys roll over instead of serving stale
    relays, while ``as_of``-pinned keys stay warm forever.
    """
    if len(segments) < 2 or segments[0] != "v1":
        return None
    if segments[1] not in _ROUTED_HEADS:
        return None
    query = "&".join(f"{k}={v}" for k, v in sorted(params.items()))
    key = "/".join(segments) + "?" + query
    if version is not None:
        key = f"v{params.get('as_of', version)}:{key}"
    return key


def _endpoint_label(segments: tuple[str, ...]) -> str:
    """The metrics endpoint name for a routed path (matches `_route`)."""
    head = segments[1]
    if head == "sites":
        return "site"
    if head == "distributions":
        return "distribution"
    if head == "analyses" and len(segments) == 3:
        return "analysis"
    return head


@dataclass(frozen=True)
class FleetSpec:
    """Everything a worker needs to build its service (fork-portable)."""

    data: str
    store: str | None = None
    no_store: bool = False
    cache_size: int = 256
    cache_bytes: int | None = None
    jobs: int = 1
    month: str | None = None
    small: bool = False
    seed: int | None = None
    as_of: int | None = None
    replicas: int = 64
    proxy_timeout: float = 5.0
    drain_timeout: float = 10.0


class _Inflight:
    """Counts requests currently being handled (for the drain)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0

    def __enter__(self) -> "_Inflight":
        with self._lock:
            self._count += 1
        return self

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._count -= 1

    @property
    def drained(self) -> bool:
        with self._lock:
            return self._count == 0


class FleetWorkerRuntime:
    """This worker's position in the fleet: index, ring, peer ports."""

    def __init__(
        self,
        *,
        index: int,
        internal_ports: Sequence[int],
        replicas: int = 64,
        proxy_timeout: float = 5.0,
        restarts=None,
    ) -> None:
        self.index = index
        self.internal_ports = tuple(internal_ports)
        self.ring = HashRing(len(self.internal_ports), replicas=replicas)
        self.proxy_timeout = proxy_timeout
        self.restarts = restarts  # multiprocessing.Value owned by the supervisor
        self.inflight = _Inflight()

    def restarts_total(self) -> int:
        return int(self.restarts.value) if self.restarts is not None else 0

    def fleet_metrics(self, service: QueryService) -> bytes:
        """The merged ``/v1/metrics`` body: every worker's counters + fleet info."""
        with get_tracer().span(
            "fleet.metrics_merge", worker=self.index, workers=self.ring.size
        ):
            per_worker = {str(self.index): service.metrics_snapshot()}
            unreachable: list[int] = []
            for index, port in enumerate(self.internal_ports):
                if index == self.index:
                    continue
                try:
                    with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/v1/metrics",
                        timeout=self.proxy_timeout,
                    ) as resp:
                        per_worker[str(index)] = json.loads(resp.read())
                except (OSError, urllib.error.URLError, ValueError):
                    unreachable.append(index)
            merged = merge_snapshots(per_worker.values())
            merged["fleet"] = {
                "size": self.ring.size,
                "worker": self.index,
                "restarts_total": self.restarts_total(),
                "unreachable": unreachable,
                "workers": dict(sorted(per_worker.items())),
            }
            return render_payload(merged)


class FleetHTTPServer(ReproHTTPServer):
    """A :class:`ReproHTTPServer` adopting an already-bound socket."""

    def __init__(
        self,
        sock,
        service: QueryService,
        *,
        runtime: FleetWorkerRuntime,
        local_only: bool = False,
    ) -> None:
        self.fleet_runtime = runtime
        #: Internal servers answer everything locally — a proxied
        #: request must render at its owner, never bounce onward.
        self.fleet_local_only = local_only
        super().__init__(
            sock.getsockname()[:2],
            service,
            handler=FleetRequestHandler,
            bind_and_activate=False,
        )
        # Swap the unbound socket socketserver created for the shared
        # one; listen() on an already-listening socket is a no-op.
        self.socket.close()
        self.socket = sock
        # Pre-fork thundering herd: a connection wakes every worker's
        # selector, one wins the accept, and on a *blocking* socket the
        # losers would then sit in accept() — unresponsive to shutdown —
        # until the next connection arrives.  Non-blocking turns the
        # lost race into an EAGAIN the serve loop swallows.
        self.socket.setblocking(False)
        host, port = sock.getsockname()[:2]
        self.server_address = (host, port)
        self.server_name = host
        self.server_port = port
        self.server_activate()


#: Keep-alive proxy connections, one per (handler thread, owner port).
#: Handler threads live as long as their client connection, so a
#: persistent client amortises the proxy TCP setup down to zero.
_PROXY_CONNS = threading.local()


class FleetRequestHandler(ReproRequestHandler):
    """Adds ring routing and fleet metrics on top of the base handler."""

    server_version = "repro-fleet/1.0"

    @property
    def runtime(self) -> FleetWorkerRuntime:
        return self.server.fleet_runtime  # type: ignore[attr-defined]

    def _dispatch(self, handler) -> None:
        with self.runtime.inflight:
            super()._dispatch(handler)

    def _route(self) -> tuple[int, bytes, bool]:
        _, segments, params = self._split()
        runtime = self.runtime
        if not self.server.fleet_local_only:  # type: ignore[attr-defined]
            key = payload_route_key(
                segments, params, version=self.service.current_version()
            )
            if key is not None and runtime.ring.size > 1:
                owner = runtime.ring.owner(key)
                if owner != runtime.index:
                    self._endpoint = _endpoint_label(segments)
                    # Serve relayed bytes from the local LRU when we
                    # have them: only the owner ever *renders*, but the
                    # hot head of a Zipf workload should not pay a
                    # proxy hop per request either.
                    hit = self.service.cache.get(key)
                    if hit is not None:
                        return 200, hit, False
                    return self._proxy(owner, key)
            if segments == ("v1", "metrics"):
                self._endpoint = "metrics"
                return 200, runtime.fleet_metrics(self.service), False
        return super()._route()

    def _proxy_conn(self, port: int) -> http.client.HTTPConnection:
        conns = getattr(_PROXY_CONNS, "by_port", None)
        if conns is None:
            conns = _PROXY_CONNS.by_port = {}
        conn = conns.get(port)
        if conn is None:
            conn = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=self.runtime.proxy_timeout
            )
            conns[port] = conn
        return conn

    def _drop_proxy_conn(self, port: int) -> None:
        conns = getattr(_PROXY_CONNS, "by_port", {})
        conn = conns.pop(port, None)
        if conn is not None:
            conn.close()

    def _proxy(self, owner: int, key: str) -> tuple[int, bytes, bool]:
        """Relay this request to its owner's internal port, verbatim.

        The owner renders (or LRU-serves) the payload, so its bytes are
        canonical; 4xx/5xx bodies relay unchanged too.  A 200 body is
        additionally stored in the local LRU under the route key so the
        next occurrence skips the hop.  If the owner is unreachable —
        crashed and not yet restarted — fall back to a local render:
        the payload is deterministic, so correctness survives, only the
        once-fleet-wide guarantee degrades until the supervisor brings
        the owner back.
        """
        runtime = self.runtime
        port = runtime.internal_ports[owner]
        with get_tracer().span(
            "fleet.proxy", owner=owner, worker=runtime.index, path=self.path
        ) as span:
            status = body = None
            for attempt in (1, 2):  # retry once on a stale kept-alive conn
                conn = self._proxy_conn(port)
                try:
                    conn.request("GET", self.path)
                    resp = conn.getresponse()
                    body = resp.read()
                    status = resp.status
                    break
                except (OSError, http.client.HTTPException):
                    self._drop_proxy_conn(port)
            if status is None:
                span.set("fallback", True)
                self.service.metrics.add("fleet_proxy_fallback")
                return super()._route()
            span.set("status_code", status)
            self.service.metrics.add("fleet_proxied")
            if status == 200:
                body = self.service.cache.put(key, body)
            return status, body, False


def build_worker_service(spec: FleetSpec) -> QueryService:
    """The worker's :class:`QueryService`, mirroring ``repro.api.serve``."""
    from ..api import _build_service

    return _build_service(
        spec.data,
        store=spec.store,
        no_store=spec.no_store,
        cache_size=spec.cache_size,
        cache_bytes=spec.cache_bytes,
        jobs=spec.jobs,
        config=None,
        month=spec.month,
        small=spec.small,
        seed=spec.seed,
        as_of=spec.as_of,
    )


def worker_main(
    index: int,
    public_sock,
    internal_sock,
    internal_ports: Sequence[int],
    spec: FleetSpec,
    restarts=None,
) -> int:
    """The worker process body: serve until SIGTERM, then drain.

    The supervisor forks with :data:`STOP_SIGNALS` blocked, so a stop
    that lands while the worker is still starting stays pending until
    the handlers below are installed.  Until both servers exist there
    is nothing to drain, and a stop signal exits the worker with 0.
    """
    servers: list[FleetHTTPServer] = []
    draining = threading.Event()

    def _drain(signum, frame):  # pragma: no cover - signal path
        if not servers:
            raise SystemExit(0)
        if draining.is_set():
            return
        draining.set()
        # shutdown() blocks until the accept loop exits; never call it
        # from the loop's own thread (the signal runs on the main
        # thread, which is inside serve_forever).
        for server in servers:
            threading.Thread(target=server.shutdown, daemon=True).start()

    for signum in STOP_SIGNALS:
        signal.signal(signum, _drain)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)

    runtime = FleetWorkerRuntime(
        index=index,
        internal_ports=internal_ports,
        replicas=spec.replicas,
        proxy_timeout=spec.proxy_timeout,
        restarts=restarts,
    )
    service = build_worker_service(spec)
    public = FleetHTTPServer(public_sock, service, runtime=runtime)
    internal = FleetHTTPServer(
        internal_sock, service, runtime=runtime, local_only=True
    )
    servers.extend((public, internal))

    internal_thread = threading.Thread(
        target=internal.serve_forever,
        name=f"fleet-internal-{index}",
        daemon=True,
    )
    internal_thread.start()
    log.info(
        "worker %d (pid %d) serving on %s, internal %s",
        index, os.getpid(), public.url, internal.url,
    )
    try:
        public.serve_forever()
    finally:
        internal.shutdown()
        deadline = time.monotonic() + spec.drain_timeout
        while not runtime.inflight.drained and time.monotonic() < deadline:
            time.sleep(0.01)
        public.server_close()
        internal.server_close()
        log.info("worker %d (pid %d) drained", index, os.getpid())
    return 0
