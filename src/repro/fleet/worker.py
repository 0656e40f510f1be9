"""One fleet worker: two HTTP servers, one ring position.

A worker process serves the public API by ``accept()``-ing on the
supervisor's shared listening socket (classic pre-fork: the kernel
load-balances connections across whichever workers are blocked in
``accept``), and additionally listens on a private loopback port —
the *internal* port — that peers use for two things:

* **ownership proxying** — a resolved cacheable payload whose
  consistent-hash owner is another worker is forwarded to that
  worker's internal port and the owner's bytes are relayed verbatim,
  so every payload is *rendered* exactly once fleet-wide instead of
  once per worker (non-owners keep an LRU copy of the relayed bytes,
  so the Zipf head is served locally everywhere after one hop);
* **metrics fan-in** — a public ``/v1/metrics`` request is answered
  with the fleet-wide view: the local snapshot plus every peer's,
  merged by :mod:`repro.fleet.metrics`.

Both servers run the single-process server and handler
(:mod:`repro.service.http`); the public one carries this worker's
:class:`FleetWorkerRuntime` when the fleet has more than one member.
The worker builds its own :class:`~repro.service.query.QueryService`
*after* the fork, from the :class:`~repro.service.spec.ServeSpec` —
over a columnar dataset the open is O(open) ``mmap`` and all workers
share one physical copy of the pages, which is what makes N workers
cost one dataset of RAM.

Shutdown is the single-process :class:`~repro.service.http.Lifecycle`:
SIGTERM stops both accept loops, in-flight requests run to completion
(bounded by ``drain_timeout``), idle keep-alive connections are
dropped, and the process exits 0 — also when the stop lands while the
worker is still starting.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import signal
import threading
import urllib.error
import urllib.request
from typing import Sequence

from ..obs import get_tracer
from ..service.http import STOP_SIGNALS, Lifecycle, ReproHTTPServer, resolve
from ..service.query import QueryService, render_payload
from ..service.spec import ServeSpec, build_service
from .metrics import merge_snapshots
from .ring import HashRing

log = logging.getLogger("repro.fleet")


def payload_route_key(
    segments: tuple[str, ...],
    params: dict[str, str],
    version: int | str | None = None,
) -> str | None:
    """The ownership key for a request, or ``None`` to answer locally.

    Only paths the route table marks as owned payloads have a key.  The
    key is a pure function of the *canonicalised* query (sorted
    params), so every worker — and a worker restarted mid-fleet —
    hashes the same request to the same owner.  ``version`` is the
    dataset version the request resolves to (an explicit ``as_of`` or
    the worker's current latest): prefixing it keeps relayed bytes
    cached under one version from ever answering another — after an
    ingest, default-latest keys roll over instead of serving stale
    relays, while ``as_of``-pinned keys stay warm forever.
    """
    route = resolve(segments)
    if route is None or not route.owned:
        return None
    query = "&".join(f"{k}={v}" for k, v in sorted(params.items()))
    key = "/".join(segments) + "?" + query
    if version is not None:
        key = f"v{params.get('as_of', version)}:{key}"
    return key


#: Keep-alive proxy connections, one per (handler thread, owner port).
#: Handler threads live as long as their client connection, so a
#: persistent client amortises the proxy TCP setup down to zero.
_PROXY_CONNS = threading.local()


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

    def relay(
        self,
        service: QueryService,
        segments: tuple[str, ...],
        params: dict[str, str],
        path: str,
    ) -> tuple[int, bytes] | None:
        """An owned payload from its owner, or ``None`` to render here.

        The owner renders (or LRU-serves) the payload, so its bytes are
        canonical; 4xx/5xx bodies relay unchanged too.  A 200 body is
        additionally stored in the local LRU under the route key, and
        served from there next time: only the owner ever *renders*, but
        the hot head of a Zipf workload should not pay a proxy hop per
        request either.  If the owner is unreachable — crashed and not
        yet restarted — this returns ``None`` and the payload renders
        locally: it is deterministic, so correctness survives, only the
        once-fleet-wide guarantee degrades until the supervisor brings
        the owner back.
        """
        key = payload_route_key(
            segments, params, version=service.current_version()
        )
        owner = self.ring.owner(key)
        if owner == self.index:
            return None
        hit = service.cache.get(key)
        if hit is not None:
            return 200, hit
        port = self.internal_ports[owner]
        with get_tracer().span(
            "fleet.proxy", owner=owner, worker=self.index, path=path
        ) as span:
            for _ in (1, 2):  # retry once on a stale kept-alive conn
                conn = self._proxy_conn(port)
                try:
                    conn.request("GET", path)
                    resp = conn.getresponse()
                    body = resp.read()
                    break
                except (OSError, http.client.HTTPException):
                    self._drop_proxy_conn(port)
            else:
                span.set("fallback", True)
                service.metrics.add("fleet_proxy_fallback")
                return None
            span.set("status_code", resp.status)
            service.metrics.add("fleet_proxied")
            if resp.status == 200:
                body = service.cache.put(key, body)
            return resp.status, body

    def _proxy_conn(self, port: int) -> http.client.HTTPConnection:
        conns = getattr(_PROXY_CONNS, "by_port", None)
        if conns is None:
            conns = _PROXY_CONNS.by_port = {}
        conn = conns.get(port)
        if conn is None:
            conn = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=self.proxy_timeout
            )
            conns[port] = conn
        return conn

    def _drop_proxy_conn(self, port: int) -> None:
        conns = getattr(_PROXY_CONNS, "by_port", {})
        conn = conns.pop(port, None)
        if conn is not None:
            conn.close()


def worker_main(
    index: int,
    public_sock,
    internal_sock,
    internal_ports: Sequence[int],
    spec: ServeSpec,
    restarts=None,
) -> int:
    """The worker process body: serve until SIGTERM, then drain.

    The supervisor forks with :data:`STOP_SIGNALS` blocked, so a stop
    that lands while the worker is still starting stays pending until
    the handlers below are installed.  A stop that lands before the
    servers serve is kept: the worker finishes starting, closes its
    servers without serving and exits 0.
    """
    lifecycle = Lifecycle(spec.drain_timeout)
    lifecycle.signals.install()
    signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)

    runtime = FleetWorkerRuntime(
        index=index,
        internal_ports=internal_ports,
        replicas=spec.replicas,
        proxy_timeout=spec.proxy_timeout,
        restarts=restarts,
    )
    service = build_service(spec)
    # Internal servers answer everything locally — a proxied request
    # must render at its owner, never bounce onward.
    public = ReproHTTPServer(
        public_sock, service,
        fleet=runtime if runtime.ring.size > 1 else None,
    )
    internal = ReproHTTPServer(internal_sock, service)
    log.info(
        "worker %d (pid %d) serving on %s, internal %s",
        index, os.getpid(), public.url, internal.url,
    )
    lifecycle.serve(public, internal)
    log.info("worker %d (pid %d) drained", index, os.getpid())
    return 0
