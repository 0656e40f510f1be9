"""The fleet supervisor: bind once, fork N, keep N alive.

:class:`FleetSupervisor` owns every socket in the fleet — the shared
public listening socket and one pre-bound internal loopback socket per
worker index — and forks the workers around them.  Owning the sockets
in the parent is what makes the lifecycle clean:

* the **public port** is bound (with ``SO_REUSEADDR``) before any
  worker exists, so the startup log can print the resolved address
  immediately, even for ``--port 0``;
* a **crashed worker** is detected through its process sentinel and
  respawned *onto the same sockets* — clients queued in the listen
  backlog never see the crash;
* the **internal ports** outlive their workers, so the ``/v1/metrics``
  fan-in reaches a restarted peer at the port it already knows.

Workers are forked (``multiprocessing`` fork context): the dataset is
*not* loaded in the supervisor — each worker opens the dataset path
itself after the fork, which for a columnar dataset is an O(open)
``mmap`` whose pages all workers share.

``stop()`` is a graceful drain: SIGTERM to every worker (each finishes
in-flight requests, bounded by the spec's ``drain_timeout``), a bounded
join, SIGKILL for stragglers, then the sockets close.  ``run()`` is the
CLI entry: it installs SIGTERM/SIGINT handlers and supervises until
signalled.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import socket
import threading
import time
from multiprocessing import connection
from pathlib import Path

from ..service.http import STOP_SIGNALS, StopSignals, bind, connectable_url
from ..service.spec import ServeSpec
from .worker import worker_main

log = logging.getLogger("repro.fleet")


class FleetSupervisor:
    """Spawns and supervises N pre-forked workers on one shared socket.

    Every worker builds its service from ``spec``, the same
    :class:`~repro.service.spec.ServeSpec` a single process serves.
    """

    def __init__(
        self,
        spec: ServeSpec,
        host: str = "127.0.0.1",
        port: int = 8000,
        workers: int = 2,
        *,
        restart_backoff: float = 0.2,
        max_restarts: int = 1000,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not hasattr(os, "fork"):
            raise RuntimeError(
                "fleet serving pre-forks workers and needs a POSIX fork(); "
                "use workers=1 (single-process) on this platform"
            )
        if not isinstance(spec.data, (str, Path)):
            raise ValueError(
                "fleet serving needs a saved-dataset path — each worker "
                "opens (mmaps) the dataset itself after forking"
            )
        self.spec = spec
        self.host = host
        self.port = port
        self.workers = workers
        self.restart_backoff = restart_backoff
        self.max_restarts = max_restarts
        self._ctx = multiprocessing.get_context("fork")
        self._socket: socket.socket | None = None
        self._internal: list[socket.socket] = []
        self._procs: list = []
        self._watcher: threading.Thread | None = None
        self._stopping = threading.Event()
        self._failed = False
        self.internal_ports: tuple[int, ...] = ()
        self.restarts = None

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "FleetSupervisor":
        """Bind the sockets, fork the workers, start the watcher thread."""
        if self._socket is not None:
            raise RuntimeError("fleet already started")
        self._socket = bind(self.host, self.port)
        self._internal = [
            bind("127.0.0.1", 0, backlog=64) for _ in range(self.workers)
        ]
        self.internal_ports = tuple(
            sock.getsockname()[1] for sock in self._internal
        )
        self.restarts = self._ctx.Value("i", 0)
        self._procs = [None] * self.workers
        self._wake_r, self._wake_w = os.pipe()
        for index in range(self.workers):
            self._spawn(index)
        self._watcher = threading.Thread(
            target=self._watch, name="fleet-watcher", daemon=True
        )
        self._watcher.start()
        log.info(
            "fleet serving %s on %s with %d workers (pids %s)",
            self.spec.data, self.url, self.workers,
            " ".join(str(p.pid) for p in self._procs),
        )
        return self

    def _spawn(self, index: int) -> None:
        proc = self._ctx.Process(
            target=worker_main,
            args=(
                index,
                self._socket,
                self._internal[index],
                self.internal_ports,
                self.spec,
                self.restarts,
            ),
            name=f"repro-fleet-worker-{index}",
            daemon=True,
        )
        # The child inherits the signal mask: a stop sent before it has
        # installed its handlers stays pending instead of killing it.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)
        try:
            proc.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        self._procs[index] = proc

    def _watch(self) -> None:
        """Restart crashed workers until told to stop."""
        while not self._stopping.is_set():
            sentinels = {
                proc.sentinel: index
                for index, proc in enumerate(self._procs)
                if proc is not None
            }
            ready = connection.wait(
                list(sentinels) + [self._wake_r], timeout=1.0
            )
            if self._stopping.is_set():
                return
            for sentinel in ready:
                index = sentinels.get(sentinel)
                if index is None:
                    continue
                proc = self._procs[index]
                proc.join()
                with self.restarts.get_lock():
                    self.restarts.value += 1
                    total = self.restarts.value
                if total > self.max_restarts:
                    log.error(
                        "worker %d died (exit %r) and the fleet exceeded "
                        "max_restarts=%d; giving up",
                        index, proc.exitcode, self.max_restarts,
                    )
                    self._failed = True
                    self._stopping.set()
                    return
                log.warning(
                    "worker %d (pid %s) died with exit %r; restarting",
                    index, proc.pid, proc.exitcode,
                )
                time.sleep(self.restart_backoff)
                self._spawn(index)

    def stop(self) -> None:
        """Drain and stop the fleet; idempotent."""
        self._stopping.set()
        if getattr(self, "_wake_w", None) is not None:
            try:
                os.write(self._wake_w, b"x")
            except OSError:
                pass
        if self._watcher is not None:
            self._watcher.join(timeout=5.0)
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()  # SIGTERM -> graceful drain in the worker
        deadline = time.monotonic() + self.spec.drain_timeout + 5.0
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                log.warning("worker pid %s did not drain; killing", proc.pid)
                proc.kill()
                proc.join(timeout=2.0)
        for sock in [self._socket, *self._internal]:
            if sock is not None:
                sock.close()
        self._socket = None
        self._internal = []
        for fd in (getattr(self, "_wake_r", None), getattr(self, "_wake_w", None)):
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:
                    pass
        self._wake_r = self._wake_w = None

    def run(self) -> int:
        """CLI entry: serve until SIGTERM/SIGINT, then drain; returns rc."""
        self.start()
        return self.wait()

    def wait(self) -> int:
        """Block a started fleet until SIGTERM/SIGINT, then drain."""
        signals = StopSignals()
        signals.install()
        try:
            while not self._stopping.is_set() and not signals.wait(0.5):
                pass
        finally:
            # Handlers stay installed through the drain, so a repeated
            # stop signal is ignored as a single process ignores it.
            self.stop()
            signals.close()
        return 1 if self._failed else 0

    # -- introspection ------------------------------------------------------------

    @property
    def url(self) -> str:
        """A connectable base URL (wildcard binds become loopback)."""
        if self._socket is None:
            raise RuntimeError("fleet not started")
        return connectable_url(self._socket.getsockname())

    def worker_pids(self) -> tuple[int, ...]:
        """Live worker pids, by index."""
        return tuple(
            proc.pid for proc in self._procs
            if proc is not None and proc.is_alive()
        )

    def __enter__(self) -> "FleetSupervisor":
        if self._socket is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "stopped" if self._socket is None else f"on {self.url}"
        return f"FleetSupervisor(workers={self.workers}, {state})"
