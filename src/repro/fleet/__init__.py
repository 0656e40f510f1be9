"""repro.fleet — pre-forked multi-process serving over one mmap'd dataset.

The single-process server (:mod:`repro.service`) is thread-per-request
over Python code that holds the GIL while rendering payloads; one
process is one core.  The fleet layer scales the same server, handler
and drain across cores the way production front ends do:

* a :class:`FleetSupervisor` binds the listening socket once and forks
  N workers that all ``accept()`` on it (kernel load-balancing), each
  worker opening the columnar dataset itself post-fork so the mmap'd
  pages are physically shared — N workers, one dataset of RAM;
* every worker renders or LRU-serves each request it accepts, exactly
  as a single process does — payloads are canonical bytes, so any
  worker's answer is every worker's answer;
* the supervisor health-checks workers through their process
  sentinels, restarting crashed ones onto the same sockets, and drains
  gracefully on SIGTERM;
* a public ``/v1/metrics`` answers with the merged fleet-wide counters
  (:func:`merge_snapshots`, fanned in over each worker's internal
  port) plus a ``fleet`` block.

``benchmarks/bench_fleet.py`` is the measuring stick: it replays a
seeded Zipf-shaped query mix against one process and against a fleet
over the same dataset, and gates the fleet's throughput speedup.
"""

from .metrics import merge_snapshots
from .supervisor import FleetSupervisor
from .worker import worker_main

__all__ = [
    "FleetSupervisor",
    "merge_snapshots",
    "worker_main",
]
