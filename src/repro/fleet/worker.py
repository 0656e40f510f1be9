"""One fleet worker: two HTTP servers, one index.

A worker process serves the public API by ``accept()``-ing on the
supervisor's shared listening socket (classic pre-fork: the kernel
load-balances connections across whichever workers are blocked in
``accept``).  It renders or LRU-serves every request it accepts,
exactly as a single process does: every payload is a deterministic
function of the dataset, rendered to canonical bytes, so any worker
answers any request byte-identically.

It additionally listens on a private loopback port — the *internal*
port — for one thing: **metrics fan-in**.  A public ``/v1/metrics``
request is answered with the fleet-wide view: the local snapshot plus
every peer's, fetched from their internal ports and merged by
:mod:`repro.fleet.metrics`.

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

import json
import logging
import os
import signal
import urllib.error
import urllib.request
from typing import Sequence

from ..obs import get_tracer
from ..service.http import STOP_SIGNALS, Lifecycle, ReproHTTPServer
from ..service.query import QueryService, render_payload
from ..service.spec import ServeSpec, build_service
from .metrics import merge_snapshots

log = logging.getLogger("repro.fleet")


#: How long a ``/v1/metrics`` fan-in waits for each peer's snapshot.
FAN_IN_TIMEOUT = 5.0


class FleetWorkerRuntime:
    """This worker's position in the fleet: index and peer ports."""

    def __init__(
        self,
        *,
        index: int,
        internal_ports: Sequence[int],
        restarts=None,
    ) -> None:
        self.index = index
        self.internal_ports = tuple(internal_ports)
        self.restarts = restarts  # multiprocessing.Value owned by the supervisor

    @property
    def size(self) -> int:
        return len(self.internal_ports)

    def restarts_total(self) -> int:
        return int(self.restarts.value) if self.restarts is not None else 0

    def fleet_metrics(self, service: QueryService) -> bytes:
        """The merged ``/v1/metrics`` body: every worker's counters + fleet info."""
        with get_tracer().span(
            "fleet.metrics_merge", worker=self.index, workers=self.size
        ):
            per_worker = {str(self.index): service.metrics_snapshot()}
            unreachable: list[int] = []
            for index, port in enumerate(self.internal_ports):
                if index == self.index:
                    continue
                try:
                    with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/v1/metrics",
                        timeout=FAN_IN_TIMEOUT,
                    ) as resp:
                        per_worker[str(index)] = json.loads(resp.read())
                except (OSError, urllib.error.URLError, ValueError):
                    unreachable.append(index)
            merged = merge_snapshots(per_worker.values())
            merged["fleet"] = {
                "size": self.size,
                "worker": self.index,
                "restarts_total": self.restarts_total(),
                "unreachable": unreachable,
                "workers": dict(sorted(per_worker.items())),
            }
            return render_payload(merged)


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
        restarts=restarts,
    )
    service = build_service(spec)
    # The internal server answers its own snapshot: a fan-in request
    # must never fan out again.
    public = ReproHTTPServer(
        public_sock, service,
        fleet=runtime if runtime.size > 1 else None,
    )
    internal = ReproHTTPServer(internal_sock, service)
    log.info(
        "worker %d (pid %d) serving on %s, internal %s",
        index, os.getpid(), public.url, internal.url,
    )
    lifecycle.serve(public, internal)
    log.info("worker %d (pid %d) drained", index, os.getpid())
    return 0
